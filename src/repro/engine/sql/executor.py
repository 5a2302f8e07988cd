"""Public execution facade for the SQL subset.

``execute_sql``/``execute_query`` are thin wrappers over the three-layer
pipeline: the logical planner (:mod:`repro.engine.sql.planner`) lowers a
parsed :class:`SelectQuery` into a plan tree, an optional rewrite pass
turns exact aggregates into weighted Horvitz-Thompson estimators, and
the physical layer (:mod:`repro.engine.sql.operators`) compiles the plan
into composable operators over :class:`~repro.engine.table.Table`.

Weighted (approximate) execution: pass ``weight_column`` naming a
numeric column carrying per-row Horvitz-Thompson weights (``n_c / s_c``
for stratum ``c``). Aggregates then estimate full-data answers:
``SUM -> sum(w * x)``, ``COUNT -> sum(w)``, ``AVG`` their ratio. The
weight column is carried through filters, projections and subqueries, and
consumed at the first aggregation. This is how a CVOPT sample answers any
query from the dialect — including ones with predicates and groupings the
sample was not optimized for.
"""

from __future__ import annotations

from ..table import Table
from .ast import SelectQuery
from .errors import QueryExecutionError
from .operators import compile_plan
from .parser import parse_query
from .planner import apply_weighting, lower_query

__all__ = [
    "execute_sql",
    "execute_query",
    "plan_query",
    "QueryExecutionError",
]


def plan_query(query: SelectQuery, weight_column: str | None = None):
    """Lower, rewrite, and compile ``query`` into a runnable plan."""
    plan = lower_query(query)
    if weight_column:
        plan = apply_weighting(plan, weight_column)
    return compile_plan(plan)


def execute_sql(
    sql: str, tables: dict, weight_column: str | None = None
) -> Table:
    """Parse and execute ``sql`` against ``tables`` (name -> Table)."""
    return execute_query(parse_query(sql), tables, weight_column)


def execute_query(
    query: SelectQuery, tables: dict, weight_column: str | None = None
) -> Table:
    return plan_query(query, weight_column).run(tables)
