"""Physical operators: executable counterparts of the logical plan.

Every operator consumes and produces a :class:`Relation` — a
:class:`~repro.engine.table.Table` plus the FROM-clause bindings used to
resolve qualified column references. Operators keep the engine's
vectorized numpy kernels; the per-clause ``_execute_*`` helpers of the
old monolithic executor live on here as composable classes.

WHERE is executed inside the aggregate operators. :func:`compile_plan`
folds a ``Filter`` directly under a ``GroupAggregate``/``CubeAggregate``
into the operator (``GroupAggregateOp(..., where=predicate)``), which
never materialises a filtered table: the predicate becomes an index
vector, group ids come from
:func:`~repro.engine.groupby.selected_group_keys` (the group-code cache
when the input is a token-stamped sample version, a factorization of
the gathered key columns otherwise), and only the columns the block
references are gathered through the index — so aggregate arguments and
computed keys are evaluated on surviving rows only. :class:`FilterOp`
remains for non-aggregate SELECTs; the logical plan (and ``EXPLAIN``)
still shows the ``Filter`` node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..aggregates import compute_aggregate
from ..expr import (
    AggCall,
    BinOp,
    ColumnRef,
    Expr,
    Star,
    collect_agg_calls,
    collect_column_refs,
    evaluate,
    evaluate_predicate,
    expr_to_sql,
    rewrite,
)
from ..groupby import (
    ALL_MARKER,
    GroupKeys,
    cube_grouping_sets,
    gather,
    row_context,
    select_rows,
    selected_group_keys,
)
from ..join import hash_join
from ..schema import DType
from ..table import Column, Table
from .ast import OrderItem, SelectItem
from .errors import QueryExecutionError
from . import planner as lp

__all__ = [
    "Relation",
    "PhysicalOperator",
    "ScanOp",
    "DualOp",
    "SubqueryOp",
    "JoinOp",
    "FilterOp",
    "ProjectOp",
    "GroupAggregateOp",
    "CubeAggregateOp",
    "OrderByOp",
    "LimitOp",
    "WithCTEOp",
    "compile_plan",
    "PhysicalPlan",
]


@dataclass
class Relation:
    """A table flowing between operators, plus its FROM bindings."""

    table: Table
    bindings: List[str]


class PhysicalOperator:
    """Base class: ``execute(catalog) -> Relation``."""

    def execute(self, catalog: dict) -> Relation:
        raise NotImplementedError


# ----------------------------------------------------------------------
# source operators
# ----------------------------------------------------------------------
_DUAL = Table({"__dual__": Column(DType.INT64, np.zeros(1, dtype=np.int64))})


@dataclass
class ScanOp(PhysicalOperator):
    table: str
    binding: str

    def execute(self, catalog: dict) -> Relation:
        if self.table not in catalog:
            raise QueryExecutionError(
                f"unknown table {self.table!r}; "
                f"known: {', '.join(sorted(catalog))}"
            )
        return Relation(catalog[self.table], [self.binding])


class DualOp(PhysicalOperator):
    def execute(self, catalog: dict) -> Relation:
        return Relation(_DUAL, [])


@dataclass
class SubqueryOp(PhysicalOperator):
    child: PhysicalOperator
    binding: str

    def execute(self, catalog: dict) -> Relation:
        inner = self.child.execute(catalog)
        return Relation(inner.table, [self.binding])


@dataclass
class WithCTEOp(PhysicalOperator):
    name: str
    definition: PhysicalOperator
    body: PhysicalOperator

    def execute(self, catalog: dict) -> Relation:
        extended = dict(catalog)
        extended[self.name] = self.definition.execute(catalog).table
        return self.body.execute(extended)


@dataclass
class JoinOp(PhysicalOperator):
    left: PhysicalOperator
    right: PhysicalOperator
    condition: Expr
    weight_column: Optional[str] = None

    def execute(self, catalog: dict) -> Relation:
        left = self.left.execute(catalog)
        right = self.right.execute(catalog)

        if (
            self.weight_column
            and self.weight_column in left.table
            and self.weight_column in right.table
        ):
            raise QueryExecutionError(
                "cannot join two weighted samples: sampling for joins is "
                "future work in the paper (Section 8)"
            )

        equalities, residual = _split_join_condition(self.condition)
        left_keys, right_keys = [], []
        for lhs, rhs in equalities:
            placed = _place_equality(
                lhs, rhs, left.table, left.bindings, right.table, right.bindings
            )
            if placed is None:
                residual.append(BinOp("=", lhs, rhs))
            else:
                left_keys.append(placed[0])
                right_keys.append(placed[1])
        if not left_keys:
            raise QueryExecutionError(
                "JOIN ... ON requires at least one cross-side equality"
            )

        left_alias = left.bindings[0] if len(left.bindings) == 1 else "left"
        right_alias = right.bindings[0] if len(right.bindings) == 1 else "right"
        joined = hash_join(
            left.table, right.table, left_keys, right_keys,
            left_alias=left_alias, right_alias=right_alias,
        )
        bindings = left.bindings + right.bindings
        for condition in residual:
            predicate = _resolve_expr(condition, joined, bindings)
            joined = joined.filter(evaluate_predicate(predicate, joined))
        return Relation(joined, bindings)


def _split_join_condition(condition: Expr):
    """Flatten an AND-tree into (equality pairs, residual predicates)."""
    equalities, residual = [], []
    stack = [condition]
    while stack:
        node = stack.pop()
        if isinstance(node, BinOp) and node.op == "AND":
            stack.append(node.left)
            stack.append(node.right)
        elif (
            isinstance(node, BinOp)
            and node.op == "="
            and isinstance(node.left, ColumnRef)
            and isinstance(node.right, ColumnRef)
        ):
            equalities.append((node.left, node.right))
        else:
            residual.append(node)
    return equalities, residual


def _place_equality(lhs, rhs, left, left_bindings, right, right_bindings):
    """Assign an equality's two refs to the join sides, or None."""
    lhs_left = _try_resolve_name(lhs.name, left, left_bindings)
    lhs_right = _try_resolve_name(lhs.name, right, right_bindings)
    rhs_left = _try_resolve_name(rhs.name, left, left_bindings)
    rhs_right = _try_resolve_name(rhs.name, right, right_bindings)
    if lhs_left and rhs_right:
        return lhs_left, rhs_right
    if rhs_left and lhs_right:
        return rhs_left, lhs_right
    return None


# ----------------------------------------------------------------------
# column-reference resolution
# ----------------------------------------------------------------------
def _try_resolve_name(name: str, table: Table, bindings) -> Optional[str]:
    if name in table:
        return name
    if "." in name:
        prefix, rest = name.split(".", 1)
        if prefix in bindings and rest in table:
            return rest
    qualified = [c for c in table.column_names if c.endswith("." + name)]
    if qualified:
        return qualified[0]  # leftmost source wins (documented dialect rule)
    return None


def _resolve_name(name: str, table: Table, bindings) -> str:
    resolved = _try_resolve_name(name, table, bindings)
    if resolved is None:
        raise QueryExecutionError(
            f"cannot resolve column {name!r}; "
            f"available: {', '.join(table.column_names)}"
        )
    return resolved


def _resolve_expr(expr: Expr, table: Table, bindings) -> Expr:
    mapping = {}
    for ref in collect_column_refs(expr):
        if ref in mapping:
            continue
        mapping[ref] = ColumnRef(_resolve_name(ref.name, table, bindings))
    return rewrite(expr, mapping)


# ----------------------------------------------------------------------
# row-wise operators
# ----------------------------------------------------------------------
@dataclass
class FilterOp(PhysicalOperator):
    child: PhysicalOperator
    predicate: Expr

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        predicate = _resolve_expr(self.predicate, rel.table, rel.bindings)
        return Relation(
            rel.table.filter(evaluate_predicate(predicate, rel.table)),
            rel.bindings,
        )


@dataclass
class ProjectOp(PhysicalOperator):
    child: PhysicalOperator
    items: Tuple[SelectItem, ...]
    weight_column: Optional[str] = None

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        working, bindings = rel.table, rel.bindings
        out = {}
        for i, item in enumerate(self.items):
            expr = _resolve_expr(item.expr, working, bindings)
            name = item.alias or _output_name(item.expr, i)
            if isinstance(expr, ColumnRef):
                out[name] = working.column(expr.name)
            else:
                out[name] = _column_from_array(evaluate(expr, working))
        if (
            self.weight_column
            and self.weight_column in working
            and self.weight_column not in out
        ):
            out[self.weight_column] = working.column(self.weight_column)
        return Relation(Table(out), bindings)


def _output_name(expr: Expr, index: int) -> str:
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1]
    return expr_to_sql(expr)


def _column_from_array(arr: np.ndarray) -> Column:
    arr = np.asarray(arr)
    if arr.dtype.kind in ("O", "U", "S"):
        return Column.from_strings(arr)
    if arr.dtype.kind == "b":
        return Column(DType.BOOL, arr)
    if arr.dtype.kind in ("i", "u"):
        return Column(DType.INT64, arr.astype(np.int64))
    return Column(DType.FLOAT64, arr.astype(np.float64))


# ----------------------------------------------------------------------
# aggregation operators
# ----------------------------------------------------------------------
@dataclass
class _AggregateState:
    """Everything the grouping kernels need, resolved from the input.

    ``agg_inputs`` and ``weights`` hold the WHERE's survivors only and
    align with the group ids. Group ids and key values come from
    ``source`` through ``index``: the unfiltered input, or — when a
    computed key had to be evaluated on the survivors first — the
    gathered survivors themselves (no index).
    """

    source: Table
    index: Optional[np.ndarray]
    bindings: list
    key_names: list
    key_exprs: dict  # resolved group expr -> key column name in source
    agg_calls: list
    agg_inputs: list
    placeholders: dict
    weights: Optional[np.ndarray]
    alias_map: dict

    def group_keys(self, by) -> GroupKeys:
        return selected_group_keys(self.source, by, self.index)


class _AggregateBase(PhysicalOperator):
    """Shared analysis for plain and CUBE group-aggregate operators."""

    def __init__(
        self,
        child: PhysicalOperator,
        group_by: Tuple[Expr, ...],
        items: Tuple[SelectItem, ...],
        having: Optional[Expr] = None,
        weight_column: Optional[str] = None,
        where: Optional[Expr] = None,
    ) -> None:
        self.child = child
        self.group_by = tuple(group_by)
        self.items = tuple(items)
        self.having = having
        self.weight_column = weight_column
        self.where = where

    def _prepare(self, rel: Relation) -> _AggregateState:
        table, bindings = rel.table, rel.bindings
        alias_map = {
            item.alias: item.expr for item in self.items if item.alias
        }
        index = select_rows(
            table,
            None
            if self.where is None
            else _resolve_expr(self.where, table, bindings),
        )

        # Group keys: plain refs use the table column; computed keys
        # become derived columns.
        key_names = []
        key_exprs = {}
        computed = {}
        for expr in self.group_by:
            if isinstance(expr, ColumnRef) and expr.name in alias_map:
                expr = alias_map[expr.name]
            resolved = _resolve_expr(expr, table, bindings)
            if isinstance(resolved, ColumnRef):
                name = resolved.name
            else:
                name = f"__key_{len(computed)}"
                computed[name] = resolved
            key_names.append(name)
            key_exprs[resolved] = name

        # Collect every aggregate call in SELECT + HAVING, deduplicated.
        agg_calls = []
        for item in self.items:
            agg_calls.extend(collect_agg_calls(item.expr))
        if self.having is not None:
            agg_calls.extend(collect_agg_calls(self.having))
        agg_calls = list(dict.fromkeys(agg_calls))
        agg_args = [
            None
            if isinstance(call.arg, Star) or call.arg is None
            else _resolve_expr(call.arg, table, bindings)
            for call in agg_calls
        ]

        # Gather what the block references, and nothing else, through
        # the selection; expressions only ever see surviving rows.
        referenced = {
            ref.name
            for expr in (*computed.values(), *agg_args)
            if expr is not None
            for ref in collect_column_refs(expr)
        }
        if self.weight_column and self.weight_column in table:
            referenced.add(self.weight_column)
        if computed:
            referenced.update(n for n in key_names if n not in computed)
        rows = gather(
            table, [n for n in table.column_names if n in referenced], index
        )
        for name, expr in computed.items():
            rows = rows.with_column(
                name, _column_from_array(evaluate(expr, rows))
            )

        weights = None
        if self.weight_column and self.weight_column in rows:
            weights = rows.column(self.weight_column).values_numeric()

        agg_inputs = []
        for call, arg in zip(agg_calls, agg_args):
            values = None
            if arg is not None:
                values = evaluate(arg, rows)
                if values.dtype.kind in ("O", "U", "S"):
                    raise QueryExecutionError(
                        "cannot aggregate string expression "
                        f"{expr_to_sql(call.arg)}"
                    )
            agg_inputs.append((call.func, values))

        placeholders = {
            call: ColumnRef(f"__agg_{i}") for i, call in enumerate(agg_calls)
        }
        return _AggregateState(
            source=rows if computed else table,
            index=None if computed else index,
            bindings=bindings,
            key_names=key_names,
            key_exprs=key_exprs,
            agg_calls=agg_calls,
            agg_inputs=agg_inputs,
            placeholders=placeholders,
            weights=weights,
            alias_map=alias_map,
        )


class GroupAggregateOp(_AggregateBase):
    """``GROUP BY`` (or full-table) aggregation over factorized groups."""

    def execute(self, catalog: dict) -> Relation:
        state = self._prepare(self.child.execute(catalog))
        keys = state.group_keys(state.key_names)
        num_groups = keys.num_groups
        if not state.key_names and num_groups == 0:
            # SQL semantics: a full-table aggregate over zero rows still
            # returns one row (COUNT = 0, SUM = 0, AVG = NULL/NaN).
            num_groups = 1
        if state.key_names:
            gtable = Table(
                {
                    name: keys.key_column(state.source, name)
                    for name in state.key_names
                }
            )
        else:
            gtable = row_context(num_groups)
        extra = {}
        for i, (func, values) in enumerate(state.agg_inputs):
            extra[f"__agg_{i}"] = compute_aggregate(
                func, values, keys.gids, num_groups, state.weights
            )
        return Relation(
            self._assemble_group_output(state, gtable, extra),
            state.bindings,
        )

    def _assemble_group_output(self, state, gtable, extra) -> Table:
        if self.having is not None:
            having = _resolve_group_expr(
                rewrite(self.having, state.placeholders),
                gtable,
                state.key_exprs,
                state.bindings,
            )
            mask = evaluate_predicate(having, gtable, extra)
            gtable = gtable.filter(mask)
            extra = {k: v[mask] for k, v in extra.items()}

        out = {}
        for i, item in enumerate(self.items):
            expr = _resolve_group_expr(
                rewrite(item.expr, state.placeholders),
                gtable,
                state.key_exprs,
                state.bindings,
            )
            name = item.alias or _output_name(item.expr, i)
            if isinstance(expr, ColumnRef) and expr.name in gtable:
                out[name] = gtable.column(expr.name)
            else:
                out[name] = _column_from_array(evaluate(expr, gtable, extra))
        return Table(out)


def _resolve_group_expr(expr, gtable, key_exprs, bindings) -> Expr:
    """Resolve an expression in group context.

    Aggregate calls were already replaced by ``__agg_i`` placeholder
    refs. A subtree equal to a GROUP BY expression maps to its key
    column; any other plain column reference must be a key column
    (standard SQL rule).
    """
    if expr in key_exprs:
        return ColumnRef(key_exprs[expr])
    if isinstance(expr, ColumnRef):
        if expr.name.startswith("__agg_"):
            return expr
        resolved = _try_resolve_name(expr.name, gtable, bindings)
        if resolved is None:
            raise QueryExecutionError(
                f"column {expr.name!r} must appear in GROUP BY or inside "
                "an aggregate"
            )
        return ColumnRef(resolved)
    mapping = {}
    for child_key, column in key_exprs.items():
        mapping[child_key] = ColumnRef(column)
    partially = rewrite(expr, mapping)
    # Resolve any remaining refs against the group table.
    refs = {}
    for ref in collect_column_refs(partially):
        if ref.name in gtable or ref.name.startswith("__agg_"):
            continue
        resolved = _try_resolve_name(ref.name, gtable, bindings)
        if resolved is None:
            raise QueryExecutionError(
                f"column {ref.name!r} must appear in GROUP BY or inside "
                "an aggregate"
            )
        refs[ref] = ColumnRef(resolved)
    return rewrite(partially, refs)


class CubeAggregateOp(_AggregateBase):
    """GROUP BY ... WITH CUBE: one grouping per subset, stacked.

    Key columns are stringified so that :data:`ALL_MARKER` can stand in
    for "all values" on the non-grouped attributes (Hive prints NULL).
    """

    def execute(self, catalog: dict) -> Relation:
        state = self._prepare(self.child.execute(catalog))
        pieces = []
        for subset in cube_grouping_sets(state.key_names):
            keys = state.group_keys(subset)
            extra = {}
            for i, (func, values) in enumerate(state.agg_inputs):
                extra[f"__agg_{i}"] = compute_aggregate(
                    func, values, keys.gids, keys.num_groups, state.weights
                )
            out = {}
            for i, item in enumerate(self.items):
                expr = item.expr
                if isinstance(expr, ColumnRef) and expr.name in state.alias_map:
                    expr = state.alias_map[expr.name]
                resolved = (
                    _resolve_expr(expr, state.source, state.bindings)
                    if not isinstance(expr, AggCall)
                    else expr
                )
                name = item.alias or _output_name(item.expr, i)
                if isinstance(resolved, AggCall) or collect_agg_calls(expr):
                    rewritten = rewrite(
                        expr if isinstance(expr, AggCall) else resolved,
                        state.placeholders,
                    )
                    out[name] = _column_from_array(
                        evaluate(
                            rewritten, row_context(keys.num_groups), extra
                        )
                    )
                elif (
                    isinstance(resolved, ColumnRef)
                    and resolved.name in state.key_names
                ):
                    if resolved.name in subset:
                        values = keys.key_column(
                            state.source, resolved.name
                        ).decode()
                        out[name] = Column.from_strings(
                            np.asarray(
                                [str(v) for v in values], dtype=object
                            )
                        )
                    else:
                        out[name] = Column.from_strings(
                            np.asarray(
                                [ALL_MARKER] * keys.num_groups, dtype=object
                            )
                        )
                else:
                    raise QueryExecutionError(
                        "WITH CUBE SELECT items must be grouped columns or "
                        f"aggregates, got {expr_to_sql(item.expr)}"
                    )
            pieces.append(Table(out))
        result = pieces[0]
        for piece in pieces[1:]:
            result = result.concat(piece)
        return Relation(result, state.bindings)


# ----------------------------------------------------------------------
# ordering / limiting
# ----------------------------------------------------------------------
@dataclass
class OrderByOp(PhysicalOperator):
    child: PhysicalOperator
    keys: Tuple[OrderItem, ...]

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        result = rel.table
        sort_keys = []
        for item in self.keys:
            expr = _resolve_expr(item.expr, result, [])
            values = evaluate(expr, result)
            if values.dtype.kind in ("O", "U", "S"):
                values = np.asarray([str(v) for v in values])
            elif values.dtype == np.bool_:
                # numpy forbids unary minus on bool; DESC needs it.
                values = values.astype(np.int8)
            sort_keys.append((values, item.ascending))
        # numpy lexsort: last key is primary.
        arrays = []
        for values, ascending in reversed(sort_keys):
            if not ascending:
                if values.dtype.kind in ("U", "S"):
                    # Invert string order via negative rank.
                    _, inverse = np.unique(values, return_inverse=True)
                    arrays.append(-inverse)
                else:
                    arrays.append(-values)
            else:
                arrays.append(values)
        order = np.lexsort(arrays)
        return Relation(result.take(order), rel.bindings)


@dataclass
class LimitOp(PhysicalOperator):
    child: PhysicalOperator
    count: int

    def execute(self, catalog: dict) -> Relation:
        rel = self.child.execute(catalog)
        return Relation(rel.table.head(self.count), rel.bindings)


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
@dataclass
class PhysicalPlan:
    """A compiled operator tree, runnable against a table catalog."""

    root: PhysicalOperator
    logical: lp.LogicalPlan

    def run(self, tables: dict) -> Table:
        return self.root.execute(dict(tables)).table


def compile_plan(plan: lp.LogicalPlan) -> PhysicalPlan:
    """Compile a logical plan into a physical operator tree."""
    return PhysicalPlan(_compile(plan), plan)


def _compile(plan: lp.LogicalPlan) -> PhysicalOperator:
    if isinstance(plan, lp.Scan):
        return ScanOp(plan.table, plan.binding)
    if isinstance(plan, lp.Dual):
        return DualOp()
    if isinstance(plan, lp.SubqueryScan):
        return SubqueryOp(_compile(plan.plan), plan.binding)
    if isinstance(plan, lp.Join):
        return JoinOp(
            _compile(plan.left),
            _compile(plan.right),
            plan.condition,
            plan.weight_column,
        )
    if isinstance(plan, lp.Filter):
        return FilterOp(_compile(plan.child), plan.predicate)
    if isinstance(plan, lp.Project):
        return ProjectOp(_compile(plan.child), plan.items, plan.weight_column)
    if isinstance(plan, (lp.GroupAggregate, lp.CubeAggregate)):
        # WHERE runs inside the aggregate: no filtered table in between.
        child, where = plan.child, None
        if isinstance(child, lp.Filter):
            child, where = child.child, child.predicate
        op = (
            GroupAggregateOp
            if isinstance(plan, lp.GroupAggregate)
            else CubeAggregateOp
        )
        return op(
            _compile(child),
            plan.group_by,
            plan.items,
            plan.having,
            plan.weight_column,
            where,
        )
    if isinstance(plan, lp.OrderBy):
        return OrderByOp(_compile(plan.child), plan.keys)
    if isinstance(plan, lp.Limit):
        return LimitOp(_compile(plan.child), plan.count)
    if isinstance(plan, lp.WithCTE):
        return WithCTEOp(
            plan.name, _compile(plan.definition), _compile(plan.body)
        )
    raise TypeError(f"cannot compile plan node {type(plan).__name__}")
