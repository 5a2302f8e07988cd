"""Vectorized group-by: factorization kernels, grouping sets, and CUBE.

The central object is :class:`GroupKeys` — dense group ids per row plus
one representative row index per group, from which key values for any
grouped column can be recovered without re-hashing.

Factorization runs through one of two kernels behind a cost rule:

* :func:`factorize_hash` — O(n) direct addressing over the integer key
  domain. Dictionary-encoded strings, int64/timestamp columns, bools,
  and the combined multi-key codes are all integers with a bounded
  value range, which covers every group-by key the engine produces.
* :func:`factorize_sort` — the ``np.unique`` sort path, O(n log n),
  kept as the fallback for floats, objects, and integer domains too
  wide to direct-address.

Both kernels emit *identical* output — dense int64 codes in ascending
value order with first-occurrence representatives — so routing is a pure
performance decision (proven by ``tests/properties/test_groupby_kernels.py``).

On top of the kernels, :func:`compute_group_keys` consults the
per-version group-code cache (:mod:`repro.engine.groupcache`) when the
table carries a ``cache_token``: sample versions are immutable, so a
repeated query shape skips factorization entirely.

WHERE is executed *inside* the group-aggregate, never as a filtered
copy of the table: :func:`select_rows` turns the predicate into an
ascending index vector, :func:`selected_group_keys` — the one place
that turns *(table, by, selection)* into :class:`GroupKeys`, shared by
the physical aggregate operators and the shard partials — groups the
selected rows, and :func:`gather` pulls only the columns a block
references through the index. The group-by attributes of a sample are
fixed when it is built and the predicate is the only part of a query
that is new at run time, so on a token-stamped table the full-table
codes come from the cache and a filtered query costs one mask, one
``take`` and a compaction of the groups the predicate emptied.

``GROUP BY a, b WITH CUBE`` executes one grouping per subset of
``{a, b}`` (Hive semantics) and stacks the results; non-grouped key
columns take the marker value :data:`ALL_MARKER`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..obs import default_tracer
from .aggregates import compute_aggregate
from .expr import Expr, evaluate_predicate
from .groupcache import default_group_code_cache
from .schema import DType
from .table import Column, Table

__all__ = [
    "ALL_MARKER",
    "GroupKeys",
    "factorize",
    "factorize_hash",
    "factorize_sort",
    "compute_group_keys",
    "compute_group_keys_sorted",
    "select_rows",
    "selected_group_keys",
    "gather",
    "row_context",
    "group_by_aggregate",
    "cube_grouping_sets",
]

#: Placeholder for "all values" in CUBE output rows (Hive prints NULL).
ALL_MARKER = "<ALL>"

#: Largest combined-code space the hash path can represent. Beyond this
#: the per-column code multiply would wrap int64 and alias distinct
#: keys, so grouping routes to the sort path instead.
_MAX_COMBINED_KEYSPACE = np.iinfo(np.int64).max

#: Cost rule for the direct-addressing kernel: hash when the integer
#: value range spans at most ``max(_HASH_DOMAIN_MIN, factor * n)``
#: slots. Dictionary codes and combined group codes are dense, so they
#: always qualify; sparse raw-integer keys (ids, epochs) qualify while
#: the LUT stays cache-friendly relative to the row count.
_HASH_DOMAIN_FACTOR = 4
_HASH_DOMAIN_MIN = 1 << 16

#: Absolute LUT ceiling for a *direct* ``factorize_hash`` call (~1 GiB
#: of int64 slots). The router's relative rule is stricter; this guards
#: explicit calls against pathological sparse domains.
_HASH_DOMAIN_LIMIT = 1 << 27


def factorize(arr: np.ndarray):
    """Dense codes + first-occurrence row index for each distinct value.

    Returns ``(codes, first_index)`` where ``codes`` is int64 in
    ``[0, k)`` and ``first_index[j]`` is a row whose value has code ``j``.
    Codes are assigned in ascending value order, identically by both
    kernels; this router picks the hash kernel when the cost rule
    allows and the sort kernel otherwise.
    """
    arr = np.asarray(arr)
    plan = _hash_plan(arr)
    if plan is not None:
        return _factorize_direct(*plan)
    return factorize_sort(arr)


def factorize_sort(arr: np.ndarray):
    """Sort-based kernel: ``np.unique`` (O(n log n)).

    Handles every dtype (floats with NaN, objects); the fallback when
    :func:`_hash_plan` declines.
    """
    uniques, first_index, codes = np.unique(
        arr, return_index=True, return_inverse=True
    )
    return codes.astype(np.int64), first_index.astype(np.int64, copy=False)


def factorize_hash(arr: np.ndarray):
    """Hash kernel: O(n) direct addressing over the integer key domain.

    Only defined for integer-kind arrays (bool/int/uint — which includes
    dictionary string codes and combined group codes); raises
    ``TypeError`` otherwise, and ``ValueError`` when the value range is
    too sparse to direct-address (> :data:`_HASH_DOMAIN_LIMIT` slots).
    Use :func:`factorize` unless a test needs to force this kernel.
    """
    arr = np.asarray(arr)
    if arr.dtype.kind not in "biu":
        raise TypeError(
            f"factorize_hash needs an integer-kind array, got {arr.dtype}"
        )
    if len(arr) == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if arr.dtype.kind == "b":
        arr = arr.view(np.int8)
    lo = int(arr.min())
    domain = int(arr.max()) - lo + 1
    if domain > _HASH_DOMAIN_LIMIT:
        raise ValueError(
            f"value range {domain} too sparse to direct-address "
            f"(limit {_HASH_DOMAIN_LIMIT}); use factorize_sort"
        )
    return _factorize_direct(arr, lo, domain)


def _hash_plan(arr: np.ndarray):
    """``(arr, lo, domain)`` when the cost rule picks the hash kernel,
    else ``None``. Computes min/max once so the kernel does not rescan."""
    if arr.dtype.kind not in "biu" or len(arr) == 0:
        return None
    if arr.dtype.kind == "b":
        arr = arr.view(np.int8)
    lo = int(arr.min())
    domain = int(arr.max()) - lo + 1
    budget = max(_HASH_DOMAIN_MIN, _HASH_DOMAIN_FACTOR * len(arr))
    if domain > min(budget, _HASH_DOMAIN_LIMIT):
        return None
    return arr, lo, domain


def _factorize_direct(arr: np.ndarray, lo: int, domain: int):
    """Direct-addressing factorize: one presence LUT over ``[lo, hi]``.

    ``np.flatnonzero(present)`` yields the distinct offsets in ascending
    order, so codes come out in the same order ``np.unique`` would
    assign them. First occurrences are recovered with one reversed fancy
    assignment: writing row indices back-to-front leaves the *smallest*
    row index in each slot (duplicate-index assignment keeps the last
    write).
    """
    n = len(arr)
    # Subtraction cannot wrap: every offset is < domain, which the
    # caller has bounded well inside int64.
    offsets = (arr - lo).astype(np.int64, copy=False)
    present = np.zeros(domain, dtype=np.bool_)
    present[offsets] = True
    hits = np.flatnonzero(present)
    lut = np.empty(domain, dtype=np.int64)
    lut[hits] = np.arange(len(hits), dtype=np.int64)
    codes = lut[offsets]
    first_index = np.empty(len(hits), dtype=np.int64)
    first_index[codes[::-1]] = np.arange(n - 1, -1, -1, dtype=np.int64)
    return codes, first_index


@dataclass
class GroupKeys:
    """Result of factorizing one or more key columns jointly."""

    by: tuple
    gids: np.ndarray  # int64 per row, dense 0..num_groups-1
    num_groups: int
    representative: np.ndarray  # one source-row index per group

    def key_column(self, table: Table, name: str) -> Column:
        """Key values per group (length ``num_groups``) for one by-column."""
        src = table.column(name)
        return src.take(self.representative)

    def key_tuples(self, table: Table) -> list:
        """Decoded ``(v1, v2, ...)`` per group, aligned with group ids."""
        decoded = [
            self.key_column(table, name).decode() for name in self.by
        ]
        return list(zip(*decoded)) if decoded else [()] * self.num_groups


def compute_group_keys(table: Table, by: Sequence[str]) -> GroupKeys:
    """Jointly factorize ``by`` columns into dense group ids.

    Wide or high-cardinality keys whose combined code space does not fit
    in int64 are grouped by lexsorting the per-column codes instead
    (identical output), so the combined-code multiply can never wrap and
    alias distinct keys.

    Tables stamped with a ``cache_token`` (immutable published sample
    versions — see :mod:`repro.engine.groupcache`) are served from the
    per-version group-code cache: a warm hit returns the stored
    :class:`GroupKeys` without opening an ``engine.factorize`` span,
    annotating the enclosing span with ``factorize.cached`` instead.
    """
    return _group_keys(table, tuple(by))[0]


def _group_keys(table: Table, by: tuple):
    """``(GroupKeys, served from the group-code cache?)``."""
    n = table.num_rows
    if not by:
        return _single_group(n), False
    token = getattr(table, "cache_token", None)
    cache = default_group_code_cache() if token is not None else None
    if cache is not None:
        cached = cache.get(token, by)
        if cached is not None:
            default_tracer().annotate(**{"factorize.cached": True})
            return cached, True
    with default_tracer().span("engine.factorize", rows=n, keys=len(by)):
        all_codes = []
        cardinalities = []
        keyspace = 1  # python int: exact, no wraparound while checking
        for name in by:
            codes, first_index = factorize(table.column(name).data)
            all_codes.append(codes)
            # Codes are dense, so the unique count IS the cardinality —
            # computed once here, reused for the combine below.
            card = len(first_index) if len(codes) else 1
            cardinalities.append(card)
            keyspace *= card
        if keyspace > _MAX_COMBINED_KEYSPACE:
            result = _group_keys_from_codes(by, all_codes, n)
        else:
            combined = all_codes[0]
            for codes, card in zip(all_codes[1:], cardinalities[1:]):
                combined = combined * card + codes
            gids, first_index = factorize(combined)
            result = GroupKeys(
                by=by,
                gids=gids,
                num_groups=len(first_index),
                representative=first_index,
            )
    if cache is not None:
        cache.put(token, by, result)
    return result, False


def _single_group(n: int) -> GroupKeys:
    """The empty grouping: every row in group 0 (no group over no rows)."""
    return GroupKeys(
        by=(),
        gids=np.zeros(n, dtype=np.int64),
        num_groups=1 if n > 0 else 0,
        representative=np.zeros(min(n, 1), dtype=np.int64),
    )


def select_rows(table: Table, where: Optional[Expr]) -> Optional[np.ndarray]:
    """Ascending indices of the rows ``where`` keeps; ``None`` = all rows.

    The predicate is evaluated once, on the unfiltered table (lazy
    columns it does not reference stay unloaded).
    """
    if where is None:
        return None
    with default_tracer().span("engine.filter", rows=table.num_rows):
        return np.flatnonzero(evaluate_predicate(where, table))


def gather(
    table: Table, names: Sequence[str], index: Optional[np.ndarray]
) -> Table:
    """Columns ``names`` of the selected rows (``index=None``: all rows,
    sharing the buffers).

    A block that references no column (``COUNT(*)``, ``SUM(1)``) still
    needs its row count, so the result then carries one placeholder
    column of that length.
    """
    if index is None:
        columns = {name: table.column(name) for name in names}
    else:
        columns = {name: table.column(name).take(index) for name in names}
    if not columns:
        return row_context(table.num_rows if index is None else len(index))
    return Table(columns, name=table.name)


def row_context(n: int) -> Table:
    """A table that only knows it has ``n`` rows (one placeholder column):
    what expressions over literals and per-group arrays evaluate against."""
    return Table({"__rows__": Column(DType.INT64, np.zeros(n, dtype=np.int64))})


def selected_group_keys(
    table: Table, by: Sequence[str], index: Optional[np.ndarray] = None
) -> GroupKeys:
    """Group the rows of ``table`` that ``index`` selects by ``by``.

    Equals ``compute_group_keys(table.take(index), by)`` in group order,
    count and key values, with ``gids`` aligned to the selected rows —
    but ``representative`` indexes the *unfiltered* ``table``, and no
    filtered table is built. What is done depends on what the input
    shows:

    * a ``cache_token`` (an immutable published sample version, on the
      front or a shard worker): the full-table codes come from
      :func:`compute_group_keys` — a group-code cache hit after the
      first query of a ``by`` tuple — and are gathered through the
      index; groups the selection emptied are compacted away so ids
      stay dense;
    * no token (base tables, join and subquery outputs): only the key
      columns are gathered through the index and factorized.
    """
    by = tuple(by)
    with default_tracer().span(
        "engine.aggregate", rows=table.num_rows
    ) as span:
        cached = False
        if index is None:
            keys, cached = _group_keys(table, by)
        elif not by:
            keys = _single_group(len(index))
        elif getattr(table, "cache_token", None) is None:
            sub = compute_group_keys(gather(table, by, index), by)
            keys = GroupKeys(
                by, sub.gids, sub.num_groups, index[sub.representative]
            )
        else:
            full, cached = _group_keys(table, by)
            gids = full.gids.take(index)
            alive = np.bincount(gids, minlength=full.num_groups) > 0
            if alive.all():
                keys = GroupKeys(
                    by, gids, full.num_groups, full.representative
                )
            else:
                lut = np.cumsum(alive) - 1
                keys = GroupKeys(
                    by,
                    lut.take(gids),
                    int(lut[-1]) + 1,
                    full.representative[alive],
                )
        span.set_tag("selected", len(keys.gids))
        span.set_tag("groups", keys.num_groups)
        span.set_tag("cached", cached)
    return keys


def compute_group_keys_sorted(table: Table, by: Sequence[str]) -> GroupKeys:
    """Sort-based alternative to :func:`compute_group_keys`.

    Instead of combining per-column codes into one hashable key (which
    multiplies cardinalities and can overflow int64 for wide keys), rows
    are lexsorted by their per-column codes and group boundaries read
    off the sorted order. Produces *identical* output to the hash path:
    the same dense group ids in ascending lexicographic key order and
    the same first-occurrence representatives (lexsort is stable).
    """
    by = tuple(by)
    n = table.num_rows
    if not by or n == 0:
        return compute_group_keys(table, by)
    codes = [factorize(table.column(name).data)[0] for name in by]
    return _group_keys_from_codes(by, codes, n)


def _group_keys_from_codes(by: tuple, codes: list, n: int) -> GroupKeys:
    """Sort-based grouping over pre-factorized per-column codes."""
    if n == 0:
        return GroupKeys(
            by=by,
            gids=np.zeros(0, dtype=np.int64),
            num_groups=0,
            representative=np.zeros(0, dtype=np.int64),
        )
    # lexsort: last key is primary, so reverse to make by[0] primary.
    order = np.lexsort(tuple(reversed(codes)))
    stacked = np.stack([c[order] for c in codes], axis=0)
    change = np.empty(n, dtype=np.bool_)
    change[0] = True
    if n > 1:
        change[1:] = np.any(stacked[:, 1:] != stacked[:, :-1], axis=0)
    segment = np.cumsum(change) - 1
    gids = np.empty(n, dtype=np.int64)
    gids[order] = segment
    starts = np.flatnonzero(change)
    return GroupKeys(
        by=by,
        gids=gids,
        num_groups=len(starts),
        representative=order[starts],
    )


def group_by_aggregate(
    table: Table,
    by: Sequence[str],
    aggregates: Sequence[tuple],
    weights: np.ndarray | None = None,
) -> Table:
    """Grouped aggregation.

    ``aggregates`` is a sequence of ``(output_name, func, values)`` where
    ``values`` is a numpy array aligned with the table rows (or ``None``
    for ``COUNT(*)``). Returns a table with the key columns followed by
    one float64 column per aggregate.
    """
    keys = compute_group_keys(table, by)
    out = {}
    for name in keys.by:
        out[name] = keys.key_column(table, name)
    for out_name, func, values in aggregates:
        result = compute_aggregate(
            func, values, keys.gids, keys.num_groups, weights
        )
        out[out_name] = Column(DType.FLOAT64, result)
    return Table(out, name=table.name)


def cube_grouping_sets(attributes: Sequence[str]) -> list:
    """All subsets of ``attributes`` in Hive's WITH CUBE order.

    The full set comes first, then subsets by decreasing size, then the
    empty grouping (grand total).
    """
    attrs = tuple(attributes)
    n = len(attrs)
    sets = []
    for size in range(n, -1, -1):
        sets.extend(
            tuple(a for j, a in enumerate(attrs) if mask >> j & 1)
            for mask in _masks_of_size(n, size)
        )
    return sets


def _masks_of_size(n: int, size: int):
    return sorted(m for m in range(1 << n) if bin(m).count("1") == size)
