"""Streaming CVOPT (paper Section 8, future-work avenue 3).

The offline algorithm takes two passes: statistics, then the draw. On a
stream neither pass can be repeated, so this module implements a
*pilot + shrink* design (in the spirit of the authors' companion work
on stratified sampling over streams, Nguyen et al., EDBT 2019 [17]):

* **Pilot phase** (the first ``pilot_fraction`` of an expected stream
  length, or an explicit row count): every stratum runs one Welford
  accumulator *per tracked value column* and an over-provisioned
  uniform reservoir (``headroom`` times its fair share of the budget).
* **Re-balance** at the pilot boundary: CVOPT's box-constrained
  allocation is computed from the pilot statistics of **every tracked
  column** (squared data CVs summed per stratum, the Theorem-2
  multi-column objective of :func:`~repro.core.allocation.multi_column_alphas`),
  with each stratum's *current reservoir capacity* as the upper bound. Capacities only **shrink** — shrinking a
  reservoir (uniform subsample, then continue Algorithm R with the
  smaller capacity) preserves exact per-stratum uniformity, whereas
  growing one would bias toward late items.
* **Tail phase**: re-balancing repeats on a doubling schedule (at
  ``pilot_rows``, ``2 * pilot_rows``, ``4 * pilot_rows``, ...) and once
  more at :meth:`finalize`, so strata that first appear late in the
  stream (e.g. clustered input) are folded into the allocation; every
  re-balance is shrink-only, and the budget bound is enforced at each
  one. Statistics keep accumulating so the final Horvitz-Thompson
  weights use exact stream counts.

A sample is typically built to serve *several* aggregate columns, so
the sampler tracks exact per-stratum moments for **every** column in
``value_columns`` (one Welford state each) and emits them all from
:meth:`statistics` — and the re-balance decision combines all of them,
so secondary columns drift no more than the primary between
refreshes. Downstream, the warehouse persists the whole
per-column block so accuracy contracts can predict CVs for whichever
column a query actually aggregates.

The price of one pass is that the allocation is computed from pilot
estimates and capped by the pilot's headroom; accuracy approaches the
two-pass optimum as the pilot grows (tested in
``tests/core/test_streaming.py``).

**State is columnar, work is O(batch).** The sampler holds one row
*pool* (a :class:`~repro.engine.table.Table`: the warm-start sample's
payload columns, each chunk appended with ``Table.concat``) and, per
stratum, an ``int64`` array of pool row ids in reservoir-slot order
plus ``capacity`` / ``seen`` / one Welford state per tracked column. No
row is ever decoded into Python values: :meth:`~StreamingCVOptSampler.
resume` is one stable ``argsort`` of ``__stratum__``, a chunk is one
factorization plus scatter-sums, :meth:`~StreamingCVOptSampler.finalize`
one ``take`` per column. :meth:`~StreamingCVOptSampler.observe` buffers
records and feeds the same chunk kernel, so there is one state and one
replacement kernel for both entry points.

**Contract: the same sample, and the same generator stream, as
Algorithm R run record by record** (:class:`~repro.engine.reservoir.
Reservoir` is the reference; ``tests/properties/
test_streaming_columnar.py`` holds the differential oracle). It holds
because, between two re-balance positions, nothing a record does
depends on an earlier *draw*: capacities are fixed, a stratum's
``seen`` at record ``i`` is its start value plus the record's rank
within the stratum, a record is appended iff that rank is below the
free room, and every other record of a stratum with slots draws
``j ~ U[0, seen)``. So all bounds are known up front and one
``rng.integers(0, highs)`` call with ``highs`` in stream order makes
the draws — numpy's array-bound path takes 32- or 64-bit words per
element by the same rule as the scalar call, leaving the generator in
the identical state. Replacements are then written per stratum in
stream order, last writer of a slot winning, and chunks end at
re-balance positions, where the same ``rng.choice`` call that would
subsample a stratum's item list subsamples its id array. Moments are the one thing that is
not bit-equal: batch ``(count, mean, m2)`` from two-pass scatter-sums
merged with Chan's update agree with per-record Welford to ~1e-14.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..engine.groupby import compute_group_keys
from ..engine.schema import DType
from ..engine.statistics import (
    ColumnStats,
    StrataStatistics,
    WelfordAccumulator,
    grouped_moments,
)
from ..engine.table import Column, Table
from .allocation import box_constrained_allocation, integerize
from .sample import STRATUM_COLUMN, WEIGHT_COLUMN, Allocation, StratifiedSample

__all__ = ["StreamingCVOptSampler", "cast_to_batch_dtypes"]

#: Either one column name or an ordered collection of them.
Columns = Union[str, Sequence[str]]


def _as_columns(value_columns: Columns) -> Tuple[str, ...]:
    if isinstance(value_columns, str):
        return (value_columns,)
    columns = tuple(dict.fromkeys(value_columns))  # dedupe, keep order
    return columns


def cast_to_batch_dtypes(
    stored: Table, batch: Table, owner: str = "the retained rows"
) -> Table:
    """``stored`` with every column in the logical dtype ``batch`` uses.

    The one dtype rule for folding a batch into retained rows: among
    the numeric dtypes (INT64 / FLOAT64 / BOOL / TIMESTAMP) the batch's
    wins and the retained values are cast to it; a STRING column on one
    side and anything else on the other is refused, naming ``owner``,
    the column and both dtypes. Raises before anything is changed.
    """
    columns = {}
    for name in stored.column_names:
        have, want = stored.column(name), batch.column(name).dtype
        if have.dtype is want:
            columns[name] = have
        elif DType.STRING in (have.dtype, want):
            raise ValueError(
                f"{owner}: column {name!r} is {have.dtype.value} but the "
                f"batch carries it as {want.value}; a STRING column cannot "
                "be folded into a numeric one (or the reverse) — fix the "
                "batch or rebuild the sample"
            )
        else:
            columns[name] = Column(want, have.data.astype(want.storage_dtype))
    return Table(columns, name=stored.name)


def _take_rows(column: Column, ids: np.ndarray) -> Column:
    """Rows ``ids`` of ``column``; a STRING dictionary is cut down to
    the categories still in use, sorted — exactly the encoding
    :meth:`Column.from_strings` gives the same values."""
    taken = column.take(ids)
    if column.dtype is not DType.STRING:
        return taken
    used = np.flatnonzero(
        np.bincount(taken.data, minlength=len(column.categories))
    )
    categories, position = np.unique(
        np.asarray(column.categories, dtype=object)[used].astype(str),
        return_inverse=True,
    )
    remap = np.zeros(len(column.categories), dtype=np.int32)
    remap[used] = position
    return Column.from_codes(remap[taken.data], [str(c) for c in categories])


class _StratumState:
    """One stratum: its reservoir as pool row ids in slot order."""

    __slots__ = ("stats", "ids", "capacity", "seen")

    def __init__(
        self,
        columns: Tuple[str, ...],
        capacity: int,
        ids: np.ndarray | None = None,
        seen: int = 0,
    ) -> None:
        self.stats: Dict[str, WelfordAccumulator] = {
            column: WelfordAccumulator() for column in columns
        }
        self.ids = np.empty(0, dtype=np.int64) if ids is None else ids
        self.capacity = capacity
        self.seen = seen


class StreamingCVOptSampler:
    """One-pass CVOPT over a stream of records.

    Parameters
    ----------
    group_by:
        Attribute names forming the stratification key.
    value_columns:
        The aggregation column(s) whose per-stratum moments are
        tracked — a single name or an ordered sequence. Every column
        gets its own Welford state per stratum and appears in
        :meth:`statistics`.
    budget:
        Total rows to retain.
    pilot_rows:
        Stream position at which the allocation is re-balanced.
    headroom:
        Over-provisioning factor for pilot reservoir capacities: each
        newly seen stratum starts with ``headroom * budget /
        max(#strata, 1)`` slots (at least 1).
    primary_column:
        Label for the sample's headline column (default: the first of
        ``value_columns``); re-balancing itself optimizes the combined
        multi-column objective. Must be one of ``value_columns``.
    decay:
        Optional exponential decay in ``(0, 1]`` for recent-biased
        allocation: each :meth:`decay_step` call (issued by the caller
        at its time-window boundaries) scales every stratum's Welford
        mass by this factor, so old data steers re-balancing with
        ``decay**age`` of its original weight. Per-stratum means and
        CVs are unaffected (uniform scaling); reservoir contents,
        populations and Horvitz-Thompson weights stay exact.

    ``replaced`` counts the reservoir slots Algorithm R has overwritten
    so far — the rows a refresh actually changed besides appends.
    """

    def __init__(
        self,
        group_by: Sequence[str],
        value_columns: Columns,
        budget: int,
        pilot_rows: int,
        headroom: float = 2.0,
        mean_floor: float = 1e-9,
        seed: int | np.random.Generator = 0,
        primary_column: str | None = None,
        decay: float | None = None,
    ) -> None:
        if budget <= 0:
            raise ValueError("budget must be positive")
        if pilot_rows <= 0:
            raise ValueError("pilot_rows must be positive")
        if headroom < 1.0:
            raise ValueError("headroom must be >= 1")
        self.group_by = tuple(group_by)
        self.value_columns = _as_columns(value_columns)
        if not self.value_columns:
            raise ValueError("need at least one value column")
        self.primary_column = primary_column or self.value_columns[0]
        if self.primary_column not in self.value_columns:
            raise ValueError(
                f"primary column {self.primary_column!r} is not tracked; "
                f"tracked: {', '.join(self.value_columns)}"
            )
        self.budget = int(budget)
        self.pilot_rows = int(pilot_rows)
        self.headroom = float(headroom)
        self.mean_floor = float(mean_floor)
        if decay is not None and not 0.0 < float(decay) <= 1.0:
            raise ValueError("decay must be in (0, 1]")
        self.decay = float(decay) if decay is not None else None
        self._rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        self._strata: Dict[Tuple, _StratumState] = {}
        #: Every row a stratum's ``ids`` may point at (no columns until
        #: the first chunk arrives).
        self._pool = Table({})
        #: ``observe`` records not yet ingested (never past the next
        #: re-balance position).
        self._pending: List[dict] = []
        self._rows_seen = 0
        self._rebalanced = False
        self._next_rebalance = self.pilot_rows
        self.replaced = 0

    @property
    def value_column(self) -> str:
        """Backward-compatible alias: the primary (re-balance) column."""
        return self.primary_column

    # ------------------------------------------------------------------
    # warm start (incremental maintenance)
    # ------------------------------------------------------------------
    @classmethod
    def resume(
        cls,
        sample: StratifiedSample,
        value_columns: Columns,
        statistics: StrataStatistics | None = None,
        headroom: float = 2.0,
        mean_floor: float = 1e-9,
        seed: int | np.random.Generator = 0,
        primary_column: str | None = None,
        decay: float | None = None,
    ) -> "StreamingCVOptSampler":
        """Warm-start a streaming sampler from a materialized sample.

        Within stratum ``c`` the existing sample is an SRS of size
        ``s_c`` from ``n_c`` rows — exactly the state of Algorithm R
        after ``n_c`` offers — so seeding each reservoir with the stored
        rows and ``seen = n_c`` and continuing the stream yields a valid
        SRS over the *extended* population. Re-balancing stays
        shrink-only: a stratum's capacity starts at its current size.

        ``statistics`` supplies exact per-stratum moments of the
        tracked columns over the full population (pass-1 output,
        persisted by the warehouse). Each tracked column whose moments
        are present is restored exactly; a column absent from the
        statistics is estimated from the sample rows, scaled to the
        stratum population — good enough to drive the allocation, and
        replaced by exact moments at the next full rebuild.
        """
        stats = statistics if statistics is not None else sample.allocation.stats
        allocation = sample.allocation
        sampler = cls(
            group_by=allocation.by,
            value_columns=value_columns,
            budget=sample.budget,
            pilot_rows=max(1, sample.source_rows),
            headroom=headroom,
            mean_floor=mean_floor,
            seed=seed,
            primary_column=primary_column,
            decay=decay,
        )
        table = sample.table
        n_strata = len(allocation.keys)
        gids = (
            table.column(STRATUM_COLUMN).data.astype(np.int64)
            if STRATUM_COLUMN in table
            else np.zeros(table.num_rows, dtype=np.int64)
        )
        sampler._pool = table.without_columns([WEIGHT_COLUMN, STRATUM_COLUMN])
        # Slot order within a stratum is stored row order.
        order = np.argsort(gids, kind="stable")
        bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(gids, minlength=n_strata))]
        )
        col_stats: Dict[str, ColumnStats | None] = {
            column: (
                stats.stats_for(column)
                if stats is not None and column in stats.columns
                else None
            )
            for column in sampler.value_columns
        }
        estimated = {
            column: grouped_moments(
                gids, sampler._pool.column(column).values_numeric(), n_strata
            )
            for column, cs in col_stats.items()
            if cs is None
        }
        for idx, key in enumerate(allocation.keys):
            population = int(allocation.populations[idx])
            ids = order[bounds[idx]:bounds[idx + 1]]
            state = _StratumState(
                sampler.value_columns, len(ids), ids, population
            )
            for column, cs in col_stats.items():
                if cs is not None:
                    state.stats[column] = _restore_welford(
                        population,
                        float(cs.total[idx]),
                        float(cs.total_sq[idx]),
                    )
                elif len(ids):
                    # Scale sample moments to the population so the CV
                    # math weighs this stratum like pass-1 statistics
                    # would.
                    _, mean, m2 = estimated[column]
                    state.stats[column] = WelfordAccumulator(
                        population,
                        float(mean[idx]),
                        float(m2[idx]) * population / len(ids),
                    )
            sampler._strata[tuple(key)] = state
        sampler._rows_seen = sample.source_rows
        sampler._rebalanced = True
        sampler._next_rebalance = max(2 * sample.source_rows, 1)
        return sampler

    # ------------------------------------------------------------------
    # streaming API
    # ------------------------------------------------------------------
    @property
    def rows_seen(self) -> int:
        return self._rows_seen + len(self._pending)

    @property
    def rebalanced(self) -> bool:
        return self._rebalanced

    def observe(self, record: Mapping[str, object]) -> None:
        """Feed one stream record (a mapping with the key + value
        attributes; extra attributes are retained in the sample).

        Records are buffered and ingested as one chunk at the next
        re-balance position, or earlier when the state is read."""
        self._pending.append(dict(record))
        if self.rows_seen >= self._next_rebalance:
            self._flush()

    def observe_table(self, table: Table) -> None:
        """Feed a Table in row order: one chunk per stretch between
        re-balance positions."""
        self._flush()
        start, n = 0, table.num_rows
        while True:
            stop = min(n, start + self._next_rebalance - self._rows_seen)
            whole = start == 0 and stop == n
            self._ingest(
                table if whole else table.take(np.arange(start, stop))
            )
            start = stop
            if start >= n:
                return

    def _flush(self) -> None:
        """Ingest the buffered ``observe`` records as one chunk."""
        if not self._pending:
            return
        records, self._pending = self._pending, []
        columns = {}
        for name in records[0]:
            column = Column.from_values([r[name] for r in records])
            # Python values carry no logical dtype: keep the pool's
            # (TIMESTAMP, FLOAT64 for a run of whole numbers) whenever
            # the values fit it, so an all-int chunk cannot narrow a
            # float column.
            if name in self._pool:
                known = self._pool.column(name).dtype
                if (
                    known is not column.dtype
                    and DType.STRING not in (known, column.dtype)
                    and np.can_cast(
                        column.dtype.storage_dtype, known.storage_dtype
                    )
                ):
                    column = Column(
                        known, column.data.astype(known.storage_dtype)
                    )
            columns[name] = column
        self._ingest(Table(columns))

    def _ingest(self, chunk: Table) -> None:
        """Algorithm R and the moment merge for one chunk of rows that
        ends at or before the next re-balance position — the one
        ingest kernel under :meth:`observe` and :meth:`observe_table`.
        """
        m = chunk.num_rows
        groups = compute_group_keys(chunk, self.group_by)
        gids, n_groups = groups.gids, groups.num_groups
        moments = [
            grouped_moments(
                gids, chunk.column(column).values_numeric(), n_groups
            )
            for column in self.value_columns
        ]
        # Nothing above or in the append changes sampler state, so a
        # malformed chunk is refused whole.
        if not self._pool.column_names:
            base, self._pool = 0, chunk
        else:
            base = self._pool.num_rows
            self._pool = cast_to_batch_dtypes(self._pool, chunk).concat(chunk)
        if m == 0:
            return

        # Strata are numbered by first appearance, as record-by-record
        # arrival would: a new stratum's capacity depends on how many
        # came before it.
        keys = groups.key_tuples(chunk)
        states: List[_StratumState] = [None] * n_groups
        for g in np.argsort(groups.representative, kind="stable"):
            state = self._strata.get(keys[g])
            if state is None:
                share = self.headroom * self.budget / (len(self._strata) + 1)
                state = self._strata[keys[g]] = _StratumState(
                    self.value_columns, max(1, int(share))
                )
            states[g] = state

        counts = np.bincount(gids, minlength=n_groups)
        starts = np.cumsum(counts) - counts
        order = np.argsort(gids, kind="stable")
        rank = np.empty(m, dtype=np.int64)  # position within its stratum
        rank[order] = np.arange(m) - np.repeat(starts, counts)
        seen = np.asarray([s.seen for s in states], dtype=np.int64)
        capacity = np.asarray([s.capacity for s in states], dtype=np.int64)
        room = capacity - np.asarray([len(s.ids) for s in states])

        # A row is appended while its stratum has room; after that every
        # row of a stratum with slots draws j in [0, seen) — all draws
        # in one call, bounds in stream order, which consumes the
        # generator exactly as the per-record scalar calls would.
        draws = np.flatnonzero((rank >= room[gids]) & (capacity[gids] > 0))
        drawn = gids[draws]
        slots = self._rng.integers(0, seen[drawn] + rank[draws] + 1)
        hit = slots < capacity[drawn]
        draws, drawn, slots = draws[hit], drawn[hit], slots[hit]
        self.replaced += len(draws)
        by_group = np.argsort(drawn, kind="stable")
        cuts = np.searchsorted(drawn[by_group], np.arange(n_groups + 1))

        for g, state in enumerate(states):
            fits = min(int(room[g]), int(counts[g]))
            if fits:
                rows = order[starts[g]:starts[g] + fits]
                state.ids = np.concatenate([state.ids, base + rows])
            hits = by_group[cuts[g]:cuts[g + 1]]
            if len(hits):
                # stream order + repeated-index assignment: the last
                # writer of a slot wins, as in Algorithm R
                state.ids[slots[hits]] = base + draws[hits]
            state.seen += int(counts[g])
            for column, (count, mean, m2) in zip(self.value_columns, moments):
                state.stats[column].merge(
                    WelfordAccumulator(
                        int(count[g]), float(mean[g]), float(m2[g])
                    )
                )

        self._rows_seen += m
        if self._rows_seen >= self._next_rebalance:
            self._rebalance()
            self._next_rebalance = max(
                self._next_rebalance * 2, self._rows_seen + 1
            )
            self._compact()

    def _compact(self) -> None:
        """Cut the pool down to the retained rows, in stratum then slot
        order (the order :meth:`finalize` emits), and renumber."""
        states = list(self._strata.values())
        ids = np.concatenate(
            [s.ids for s in states] + [np.empty(0, dtype=np.int64)]
        )
        self._pool = Table(
            {
                name: _take_rows(self._pool.column(name), ids)
                for name in self._pool.column_names
            }
        )
        bounds = np.cumsum([0] + [len(s.ids) for s in states])
        fresh = np.arange(len(ids), dtype=np.int64)
        for state, lo, hi in zip(states, bounds[:-1], bounds[1:]):
            state.ids = fresh[lo:hi]

    def decay_step(self, factor: float | None = None) -> None:
        """Apply one exponential-decay step to every stratum's moments.

        The caller decides what a "step" is — typically one tumbling
        window rolling over. Scaling is uniform per stratum
        (:meth:`WelfordAccumulator.scale`), so per-stratum means and CVs
        are preserved exactly; only the relative mass of old
        observations in the next re-balance shrinks.
        """
        factor = self.decay if factor is None else float(factor)
        if factor is None:
            raise ValueError("no decay factor configured or given")
        self._flush()
        for state in self._strata.values():
            for acc in state.stats.values():
                acc.scale(factor)

    # ------------------------------------------------------------------
    # re-balancing
    # ------------------------------------------------------------------
    def rebalance(self) -> None:
        """Force a shrink-only re-balance now (batch maintenance)."""
        self._flush()
        self._rebalance()

    def _rebalance(self) -> None:
        self._rebalanced = True
        keys = list(self._strata)
        if not keys:
            return
        # Combined multi-column objective (Theorem 2 summed across the
        # tracked columns, mirroring ``allocation.multi_column_alphas``):
        # alpha_c = sum over columns of that column's squared data CV,
        # each column floored independently so a near-zero-mean column
        # cannot blow up the whole allocation.
        alphas = np.zeros(len(keys), dtype=np.float64)
        for column in self.value_columns:
            means = np.asarray(
                [abs(self._strata[k].stats[column].mean) for k in keys]
            )
            stds = np.asarray(
                [self._strata[k].stats[column].std for k in keys]
            )
            finite = means[means > 0]
            floor = (
                self.mean_floor * float(finite.max()) if len(finite) else 1.0
            )
            means = np.maximum(means, max(floor, 1e-300))
            alphas += (stds / means) ** 2

        capacities = np.asarray(
            [self._strata[k].capacity for k in keys],
            dtype=np.float64,
        )
        lower = np.minimum(1.0, capacities)
        target = box_constrained_allocation(
            alphas, self.budget, lower, capacities
        )
        sizes = integerize(
            target, self.budget, capacities.astype(np.int64)
        )
        for key, new_capacity in zip(keys, sizes):
            self._shrink(self._strata[key], int(new_capacity))

    def _shrink(self, state: _StratumState, new_capacity: int) -> None:
        """Shrink-only resize preserving within-stratum uniformity."""
        if new_capacity >= state.capacity:
            return  # growing would bias toward late items; keep as is
        if len(state.ids) > new_capacity:
            picked = self._rng.choice(
                len(state.ids), size=new_capacity, replace=False
            )
            state.ids = state.ids[picked]
        state.capacity = new_capacity

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def statistics(self) -> StrataStatistics:
        """Stream statistics of every tracked column, per stratum.

        Keys are aligned with :meth:`finalize`'s allocation, so the
        result can be persisted next to the sample and handed back to
        :meth:`resume` for the next maintenance round. Moments are
        exact over the whole observed stream (warm-start population
        included), per column.
        """
        self._flush()
        keys = list(self._strata)
        sizes = np.asarray(
            [self._strata[k].seen for k in keys], dtype=np.int64
        )
        stats = StrataStatistics(
            by=self.group_by,
            keys=keys,
            sizes=sizes,
        )
        for column in self.value_columns:
            counts = np.asarray(
                [self._strata[k].stats[column].count for k in keys],
                dtype=np.float64,
            )
            means = np.asarray(
                [self._strata[k].stats[column].mean for k in keys],
                dtype=np.float64,
            )
            m2s = np.asarray(
                [self._strata[k].stats[column].m2 for k in keys],
                dtype=np.float64,
            )
            totals = means * counts
            totals_sq = m2s + counts * means**2
            stats.columns[column] = ColumnStats(
                count=counts, total=totals, total_sq=totals_sq
            )
        return stats

    def finalize(self) -> StratifiedSample:
        """Materialize the retained rows as a StratifiedSample."""
        self._flush()
        if self._strata:
            self._rebalance()  # fold in strata seen since the last one
        self._compact()  # the pool is now exactly the sample's rows
        keys = list(self._strata)
        states = list(self._strata.values())
        populations = np.asarray([s.seen for s in states], dtype=np.int64)
        sizes = np.asarray([len(s.ids) for s in states], dtype=np.int64)
        gids = np.repeat(np.arange(len(states), dtype=np.int64), sizes)
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(
                sizes > 0, populations / np.maximum(sizes, 1), 0.0
            )
        weights = scale[gids] if len(gids) else np.zeros(0)
        table = self._pool.with_column(
            WEIGHT_COLUMN, Column(DType.FLOAT64, weights.astype(np.float64))
        )
        table = table.with_column(
            STRATUM_COLUMN, Column(DType.INT64, gids)
        )
        allocation = Allocation(
            by=self.group_by,
            keys=keys,
            populations=populations,
            sizes=sizes,
            stats=self.statistics(),
        )
        return StratifiedSample(
            table=table,
            allocation=allocation,
            method="CVOPT-STREAM",
            source_rows=self._rows_seen,
            budget=self.budget,
        )


def _restore_welford(
    count: int, total: float, total_sq: float
) -> WelfordAccumulator:
    """A Welford state from additive moments (store round-trip)."""
    mean = total / count if count else 0.0
    m2 = max(total_sq - count * mean**2, 0.0) if count else 0.0
    return WelfordAccumulator(int(count), mean, m2)
