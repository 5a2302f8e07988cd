"""The correctness gate: what an answer over HTTP is compared with.

The oracle runs the program's library in the benchmark process on a
plain (unsharded, npz) store built from the same base with the same
seed. For the plain workloads equality proves the serving layers lose
nothing; for ``adhoc_shard2`` it is the sharded == unsharded promise.
Forced-exact answers are compared with ``execute_sql`` on the base.
"""

from __future__ import annotations

import math
import pathlib
from typing import Dict, Iterable, List, Tuple

import workloads

TOLERANCE = 1e-9
KEY_COLUMNS = ("country", "parameter")


def keyed(payload: Dict) -> Dict[Tuple, Dict[str, float]]:
    """``{group key: {aggregate column: value}}`` of a ``/query``
    payload (or of :func:`table_payload`), whatever the row order."""
    columns = payload["columns"]
    key_at = [i for i, c in enumerate(columns) if c in KEY_COLUMNS]
    value_at = [i for i, c in enumerate(columns) if c not in KEY_COLUMNS]
    return {
        tuple(row[i] for i in key_at): {columns[i]: row[i] for i in value_at}
        for row in payload["rows"]
    }


def table_payload(table) -> Dict:
    names = list(table.column_names)
    decoded = [table.column(name).decode().tolist() for name in names]
    return {
        "columns": names,
        "rows": [list(row) for row in zip(*decoded)],
    }


def _same(a: float, b: float, column: str) -> bool:
    if isinstance(a, float) and isinstance(b, float):
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
    if column in workloads.DEVIATION_COLUMNS:
        # Partials merge exactly in the moments, so deviations are
        # compared as variances: the square root of a rounding-sized
        # variance (a group whose values are all equal) is not small.
        a, b = a * a, b * b
    return abs(a - b) <= TOLERANCE * max(1.0, abs(a), abs(b))


def differences(got: Dict, want: Dict) -> List[str]:
    """Human-readable mismatches between two payloads (empty = equal)."""
    got_rows, want_rows = keyed(got), keyed(want)
    if got_rows.keys() != want_rows.keys():
        return [
            f"groups differ: {len(got_rows)} answered, "
            f"{len(want_rows)} expected"
        ]
    out = []
    for key, expected in want_rows.items():
        for column, value in expected.items():
            answered = got_rows[key].get(column)
            if answered is None or not _same(answered, value, column):
                out.append(f"{key} {column}: {answered!r} != {value!r}")
    return out


def group_errors(approx: Dict, exact: Dict) -> List[float]:
    """The paper's per-group error |approx - exact| / |exact| for every
    group of every non-extreme aggregate; a group the approximate
    answer lacks counts as an error of 1."""
    approx_rows, exact_rows = keyed(approx), keyed(exact)
    errors = []
    for key, expected in exact_rows.items():
        for column, value in expected.items():
            if column in workloads.EXTREME_COLUMNS:
                continue
            if not isinstance(value, (int, float)) or math.isnan(value):
                continue
            if value == 0:
                continue
            answered = approx_rows.get(key, {}).get(column)
            if answered is None or (
                isinstance(answered, float) and math.isnan(answered)
            ):
                errors.append(1.0)
            else:
                errors.append(abs(answered - value) / abs(value))
    return errors


def dashboard_errors(approx: Dict[str, Dict], exact: Dict[str, Dict]) -> List[float]:
    errors: List[float] = []
    for sql in workloads.DASHBOARD:
        if sql in approx and sql in exact:
            errors.extend(group_errors(approx[sql], exact[sql]))
    return errors


class Oracle:
    """Expected answers, computed in the benchmark process."""

    def __init__(self, fixture: workloads.Fixture, scale: workloads.Scale,
                 build_seed: int, workdir: pathlib.Path, grown: bool) -> None:
        from repro.engine.table import Table
        from repro.warehouse import WarehouseService

        self.base = Table.load(fixture.base)
        self.service = WarehouseService(
            str(workdir / "oracle"), {workloads.TABLE: self.base}
        )
        self.service.build(
            workloads.SAMPLE, workloads.TABLE,
            group_by=workloads.GROUP_BY.split(","),
            value_columns=workloads.VALUE_COLUMNS.split(","),
            budget=scale.budget, seed=build_seed,
        )
        # ``lifecycle`` asks its exact questions after the batches
        # landed, so they are answered over the grown table.
        self.exact_table = self.base
        if grown:
            for path in fixture.batches:
                self.exact_table = self.exact_table.concat(Table.load(path))

    def approximate(self, sql: str) -> Dict:
        return table_payload(self.service.query(sql).table)

    def exact(self, sql: str) -> Dict:
        from repro.engine.sql import execute_sql

        return table_payload(
            execute_sql(sql, {workloads.TABLE: self.exact_table})
        )


def compare(pairs: Iterable[Tuple[str, Dict]], expected, label: str) -> List[str]:
    """Mismatches of ``(sql, payload)`` pairs against ``expected(sql)``."""
    problems: List[str] = []
    for sql, payload in pairs:
        for difference in differences(payload, expected(sql))[:3]:
            problems.append(f"{label}: {sql}: {difference}")
    return problems
