"""Decomposable aggregates: per-shard partials and their exact merge.

The scatter-gather protocol rests on one algebraic fact: every
aggregate the engine serves over a stratified sample is a function of
per-group *additive moments*. With Horvitz-Thompson weights ``w``:

* ``COUNT``            = sum of ``w``                    (additive)
* ``SUM`` / ``COUNT_IF`` = sum of ``w * v``              (additive)
* ``AVG``              = sum(w*v) / sum(w)               (from moments)
* ``VAR`` / ``STD``    = from sum(w), sum(w*v), sum(w*v^2)
* ``MIN`` / ``MAX``    = min/max of per-shard extrema

Because shards partition the sample rows, each shard computes its
moments over its own rows and the front adds them — the same
Welford/Chan moment merge the streaming sampler uses for statistics,
applied per query group. ``MEDIAN`` is the one engine aggregate with
no such decomposition; queries using it (or any shape this module
cannot prove decomposable — joins, CTEs, CUBE, HAVING, computed group
keys) fall back to exact execution at the front.

:func:`decompose` turns a parsed query into a :class:`DecomposedQuery`
or ``None``; :func:`compute_partials` runs on a shard worker against
its slice of the sample — through the engine's fused filter + group
kernel (:func:`repro.engine.groupby.selected_group_keys`, the function
the physical operators call), so a WHERE is an index vector over the
shard's cached group codes, never a filtered copy;
:func:`merge_partials` +
:func:`finalize_partials` run on the front and reproduce — modulo
floating-point summation order — exactly what the unsharded engine's
``GroupAggregateOp`` would have produced on the whole sample,
including output column names and post-aggregation expressions
(``SUM(x)/COUNT(*)`` etc. are evaluated over the merged moments with
the executor's own placeholder rewrite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.sample import WEIGHT_COLUMN, StratifiedSample
from ..engine.aggregates import mean_from_moments, variance_from_moments
from ..engine.expr import (
    AggCall,
    ColumnRef,
    Expr,
    Star,
    collect_agg_calls,
    collect_column_refs,
    evaluate,
    expr_to_sql,
    rewrite,
)
from ..engine.groupby import (
    gather,
    row_context,
    select_rows,
    selected_group_keys,
)
from ..engine.sql.ast import NamedTable, SelectItem, SelectQuery
from ..engine.sql.errors import QueryExecutionError
from ..engine.sql.operators import _column_from_array
from ..engine.table import Table

__all__ = [
    "DecomposedQuery",
    "ShardPartials",
    "compute_partials",
    "decompose",
    "finalize_partials",
    "merge_partials",
]

#: Aggregates with an exact moment/extremum decomposition, and the
#: moments of their argument each one reads (``COUNT`` reads the group
#: weight only). ``MEDIAN`` is deliberately absent.
_MOMENTS_READ = {
    "COUNT": (),
    "SUM": ("total",),
    "COUNT_IF": ("total",),
    "AVG": ("total",),
    "MEAN": ("total",),
    "MIN": ("vmin",),
    "MAX": ("vmax",),
    "VAR": ("total", "total_sq"),
    "VARIANCE": ("total", "total_sq"),
    "STD": ("total", "total_sq"),
    "STDDEV": ("total", "total_sq"),
}
DECOMPOSABLE_FUNCS = frozenset(_MOMENTS_READ)


@dataclass(frozen=True)
class DecomposedQuery:
    """A query proven decomposable into per-shard partials.

    ``items`` are the SELECT items with qualifiers stripped and
    aggregate calls replaced by ``__agg_i`` placeholder refs;
    ``agg_calls`` holds the deduplicated calls, index-aligned with the
    placeholders. ``output_names`` reproduces the unsharded engine's
    output schema (aliases, or the original expression's SQL).
    """

    table: str
    where: Optional[Expr]
    key_names: Tuple[str, ...]
    items: Tuple[SelectItem, ...]
    output_names: Tuple[str, ...]
    agg_calls: Tuple[AggCall, ...]
    order_by: Tuple[Tuple[str, bool], ...]
    limit: Optional[int]


@dataclass
class ShardPartials:
    """One shard's per-group partial moments for one query.

    ``keys`` are decoded group-key tuples; all arrays align with them.
    ``blocks[i]`` belongs to ``agg_calls[i]`` (``None`` for argument-
    less COUNT): weighted ``total``/``total_sq`` plus raw ``vmin``/
    ``vmax`` with infinity identities, so merging is a plain
    elementwise reduce.
    """

    keys: List[tuple]
    wcount: np.ndarray  # sum of HT weights per group
    support: np.ndarray  # raw sample rows per group
    blocks: List[Optional[Dict[str, np.ndarray]]]
    sample_version: Optional[str] = None


def _strip(name: str) -> str:
    return name.split(".")[-1]


def _strip_refs(expr: Expr) -> Expr:
    """Rewrite ``t.col`` references to bare ``col`` ones."""
    mapping = {
        ref: ColumnRef(_strip(ref.name))
        for ref in collect_column_refs(expr)
        if "." in ref.name
    }
    return rewrite(expr, mapping) if mapping else expr


def decompose(query: SelectQuery) -> Optional[DecomposedQuery]:
    """Prove ``query`` decomposable, or return ``None``.

    Supported: single-table aggregate SELECTs with plain-column group
    keys, any WHERE the engine can evaluate row-wise, SELECT items
    that are group keys or expressions over decomposable aggregates,
    ORDER BY on output columns, and LIMIT. Anything else — joins,
    subqueries, CTEs, CUBE, HAVING, MEDIAN, computed group keys —
    returns ``None`` and is executed exactly at the front.
    """
    if (
        query.ctes
        or query.with_cube
        or query.having is not None
        or not isinstance(query.from_clause, NamedTable)
        or not query.is_aggregate
    ):
        return None
    alias_map = {
        item.alias: item.expr for item in query.items if item.alias
    }
    key_names: List[str] = []
    for expr in query.group_by:
        if isinstance(expr, ColumnRef) and expr.name in alias_map:
            expr = alias_map[expr.name]
        if not isinstance(expr, ColumnRef):
            return None  # computed group key
        key_names.append(_strip(expr.name))

    agg_calls: List[AggCall] = []
    for item in query.items:
        agg_calls.extend(collect_agg_calls(item.expr))
    agg_calls = list(dict.fromkeys(agg_calls))
    for call in agg_calls:
        if call.func.upper() not in DECOMPOSABLE_FUNCS:
            return None
        if call.arg is not None and not isinstance(call.arg, Star):
            if collect_agg_calls(call.arg):
                return None  # nested aggregate
    stripped_calls = tuple(
        AggCall(call.func, _strip_refs(call.arg))
        if call.arg is not None and not isinstance(call.arg, Star)
        else call
        for call in agg_calls
    )

    # Rewrite items: strip qualifiers, then swap aggregate calls for
    # placeholder refs (the executor's own technique), and verify that
    # what remains only references group keys and placeholders.
    placeholders = {
        call: ColumnRef(f"__agg_{i}") for i, call in enumerate(agg_calls)
    }
    placeholder_names = {ref.name for ref in placeholders.values()}
    items: List[SelectItem] = []
    output_names: List[str] = []
    for i, item in enumerate(query.items):
        if isinstance(item.expr, Star):
            return None
        rewritten = _strip_refs(rewrite(item.expr, placeholders))
        for ref in collect_column_refs(rewritten):
            if (
                ref.name not in placeholder_names
                and ref.name not in key_names
            ):
                return None  # non-grouped bare column
        items.append(SelectItem(rewritten, item.alias))
        output_names.append(item.alias or _output_name(item.expr, i))

    order_by: List[Tuple[str, bool]] = []
    for order in query.order_by:
        expr = order.expr
        name = _strip(expr.name) if isinstance(expr, ColumnRef) else None
        if name is None or name not in output_names:
            return None
        order_by.append((name, order.ascending))

    where = _strip_refs(query.where) if query.where is not None else None
    if where is not None and collect_agg_calls(where):
        return None
    return DecomposedQuery(
        table=query.from_clause.name,
        where=where,
        key_names=tuple(key_names),
        items=tuple(items),
        output_names=tuple(output_names),
        agg_calls=stripped_calls,
        order_by=tuple(order_by),
        limit=query.limit,
    )


def _output_name(expr: Expr, index: int) -> str:
    # Mirrors the executor's naming for unaliased items.
    if isinstance(expr, ColumnRef):
        return expr.name.split(".")[-1]
    return expr_to_sql(expr)


# ----------------------------------------------------------------------
# shard side
# ----------------------------------------------------------------------
def compute_partials(
    sample: StratifiedSample, dq: DecomposedQuery
) -> ShardPartials:
    """Per-group partial moments over one shard's sample rows.

    Selects the WHERE's survivors and groups them with the engine's
    fused kernel (:func:`~repro.engine.groupby.selected_group_keys` —
    the same function the physical aggregate operators call, so a warm
    shard serves its group codes from the cache), gathers only the HT
    weights and the aggregate arguments' columns through the selection,
    and computes, per aggregate call, the moments that call reads — the
    exact per-shard summands of the unsharded kernels in
    :mod:`repro.engine.aggregates`. Moments nobody asked for are the
    merge's identities.

    Only referenced columns are ever touched, so with a lazy mmap-backed
    sample a shard worker's resident set stays proportional to the
    query, not the sample.
    """
    table = sample.table
    index = select_rows(table, dq.where)
    keys = selected_group_keys(table, dq.key_names, index)
    referenced = {WEIGHT_COLUMN}
    for call in dq.agg_calls:
        if call.arg is not None and not isinstance(call.arg, Star):
            referenced.update(
                ref.name for ref in collect_column_refs(call.arg)
            )
    rows = gather(
        table, [c for c in table.column_names if c in referenced], index
    )
    weights = (
        rows.column(WEIGHT_COLUMN).values_numeric()
        if WEIGHT_COLUMN in rows
        else np.ones(rows.num_rows)
    )
    num_groups = keys.num_groups
    if not dq.key_names:
        # A full-table aggregate always has its one group, even over an
        # empty shard (SQL's COUNT=0 row) — the merge needs the slot.
        num_groups = 1
        tuples = [()]
    else:
        tuples = keys.key_tuples(table)
    gids = keys.gids
    wcount = np.bincount(gids, weights=weights, minlength=num_groups)
    support = np.bincount(gids, minlength=num_groups).astype(np.int64)
    identity = _identity_block(num_groups)
    blocks: List[Optional[Dict[str, np.ndarray]]] = []
    for call in dq.agg_calls:
        if call.arg is None or isinstance(call.arg, Star):
            blocks.append(None)
            continue
        values = np.asarray(evaluate(call.arg, rows))
        if values.dtype.kind in ("O", "U", "S"):
            raise QueryExecutionError(
                "cannot aggregate string expression "
                f"{expr_to_sql(call.arg)}"
            )
        values = values.astype(np.float64)
        block = dict(identity)
        wanted = _MOMENTS_READ[call.func]
        if "total" in wanted:
            weighted = values * weights
            block["total"] = np.bincount(
                gids, weights=weighted, minlength=num_groups
            )
            if "total_sq" in wanted:
                block["total_sq"] = np.bincount(
                    gids, weights=weighted * values, minlength=num_groups
                )
        if "vmin" in wanted:
            block["vmin"] = np.full(num_groups, np.inf)
            np.minimum.at(block["vmin"], gids, values)
        if "vmax" in wanted:
            block["vmax"] = np.full(num_groups, -np.inf)
            np.maximum.at(block["vmax"], gids, values)
        blocks.append(block)
    return ShardPartials(
        keys=[tuple(k) for k in tuples],
        wcount=wcount,
        support=support,
        blocks=blocks,
    )


def _identity_block(n: int) -> Dict[str, np.ndarray]:
    """A moment block that changes nothing when merged."""
    return {
        "total": np.zeros(n),
        "total_sq": np.zeros(n),
        "vmin": np.full(n, np.inf),
        "vmax": np.full(n, -np.inf),
    }


# ----------------------------------------------------------------------
# front side
# ----------------------------------------------------------------------
def merge_partials(
    parts: Sequence[ShardPartials], num_calls: int
) -> ShardPartials:
    """Add per-shard moments group-by-group (exact, order-insensitive
    up to float summation order); extrema merge by min/max."""
    index: Dict[tuple, int] = {}
    for part in parts:
        for key in part.keys:
            index.setdefault(key, len(index))
    merged_keys = sorted(index, key=_merge_sort_key)
    index = {key: i for i, key in enumerate(merged_keys)}
    n = max(len(merged_keys), 1)
    wcount = np.zeros(n)
    support = np.zeros(n, dtype=np.int64)
    # An index needs a moment block iff any shard computed one — even a
    # shard with zero matching groups says whether the call takes an
    # argument, so an all-empty result still finalizes cleanly.
    blocks: List[Optional[Dict[str, np.ndarray]]] = [
        (
            _identity_block(n)
            if any(
                i < len(part.blocks) and part.blocks[i] is not None
                for part in parts
            )
            else None
        )
        for i in range(num_calls)
    ]
    for part in parts:
        if not part.keys:
            continue
        rows = np.asarray([index[key] for key in part.keys])
        np.add.at(wcount, rows, part.wcount[: len(rows)])
        np.add.at(support, rows, part.support[: len(rows)])
        for i, block in enumerate(part.blocks):
            if block is None:
                continue
            acc = blocks[i]
            np.add.at(acc["total"], rows, block["total"][: len(rows)])
            np.add.at(
                acc["total_sq"], rows, block["total_sq"][: len(rows)]
            )
            np.minimum.at(acc["vmin"], rows, block["vmin"][: len(rows)])
            np.maximum.at(acc["vmax"], rows, block["vmax"][: len(rows)])
    return ShardPartials(
        keys=list(merged_keys),
        wcount=wcount,
        support=support,
        blocks=blocks,
    )


def _merge_sort_key(key: tuple):
    return tuple(
        (v is None, isinstance(v, str), v if v is not None else 0)
        for v in key
    )


def _final_values(
    func: str,
    wcount: np.ndarray,
    support: np.ndarray,
    block: Optional[Dict[str, np.ndarray]],
) -> np.ndarray:
    """The unsharded kernel's output, computed from merged moments."""
    if func == "COUNT":
        return wcount.astype(np.float64)
    if block is None:
        raise QueryExecutionError(f"{func} requires an argument")
    wanted = _MOMENTS_READ.get(func)
    if wanted is None:
        raise QueryExecutionError(f"aggregate {func!r} is not decomposable")
    if "total_sq" in wanted:
        var = variance_from_moments(
            wcount, block["total"], block["total_sq"]
        )
        return np.sqrt(var) if func in ("STD", "STDDEV") else var
    if func in ("AVG", "MEAN"):
        return mean_from_moments(wcount, block["total"])
    if func in ("MIN", "MAX"):
        # Empty by row count, not by value: a group holding ±inf has it
        # as its extremum.
        return np.where(support > 0, block[wanted[0]], np.nan)
    return block["total"].astype(np.float64)  # SUM, COUNT_IF


def finalize_partials(
    dq: DecomposedQuery, merged: ShardPartials
) -> Table:
    """Assemble the final answer table from merged partials.

    Reproduces ``GroupAggregateOp``'s output assembly: a group-key
    context table plus one ``__agg_i`` array per aggregate, with each
    SELECT item evaluated over them, then ORDER BY / LIMIT.
    """
    # Grouped queries with no surviving group produce an empty table;
    # full-table aggregates always have their one () group.
    num_groups = len(merged.keys) if dq.key_names else 1
    wcount = merged.wcount[:num_groups]
    support = merged.support[:num_groups]
    gtable_cols = {}
    for j, name in enumerate(dq.key_names):
        gtable_cols[name] = _column_from_array(
            np.asarray([key[j] for key in merged.keys])
        )
    gtable = (
        Table(gtable_cols)
        if gtable_cols
        else row_context(num_groups)
    )
    extra = {
        f"__agg_{i}": _final_values(
            call.func,
            wcount,
            support,
            (
                {k: v[:num_groups] for k, v in merged.blocks[i].items()}
                if merged.blocks[i] is not None
                else None
            ),
        )
        for i, call in enumerate(dq.agg_calls)
    }
    out = {}
    for name, item in zip(dq.output_names, dq.items):
        expr = item.expr
        if isinstance(expr, ColumnRef) and expr.name in gtable:
            out[name] = gtable.column(expr.name)
        else:
            out[name] = _column_from_array(
                np.asarray(evaluate(expr, gtable, extra))
            )
    table = Table(out)
    if dq.order_by:
        arrays = []
        ascending = []
        for name, asc in dq.order_by:
            arrays.append(np.asarray(table.column(name).decode()))
            ascending.append(asc)
        # lexsort: last key is primary; numpy sorts ascending, so flip
        # descending numeric keys (strings sort via argsort fallback).
        order = np.arange(table.num_rows)
        for arr, asc in zip(reversed(arrays), reversed(ascending)):
            idx = np.argsort(arr[order], kind="stable")
            if not asc:
                idx = idx[::-1]
            order = order[idx]
        table = table.take(order)
    if dq.limit is not None:
        table = table.head(dq.limit)
    return table
