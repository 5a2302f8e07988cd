"""Incremental sample maintenance (paper Section 8 made durable).

Samples in the warehouse go stale as the base table grows. The
maintenance pipeline folds appended batches into a stored sample in one
pass over *only the new rows*, using the streaming CVOPT
(:class:`~repro.core.streaming.StreamingCVOptSampler`) warm-started
from the persisted sample + its pass-1 statistics:

* within each stratum the stored rows seed a reservoir whose ``seen``
  counter is the stratum population, so continuing Algorithm R over the
  batch yields an exact SRS of the extended population;
* per-stratum moments are merged exactly **per tracked column**
  (moments are additive), so the Horvitz-Thompson weights, the
  CV-driven re-balance and every column's accuracy contract use true
  populations, not estimates — a refresh never silently invalidates
  the statistics of the other aggregates the sample was built for;
* re-balancing is **shrink-only** (growing a reservoir would bias
  toward late rows), so a stratum whose optimal share *grows* over time
  cannot be topped up incrementally. That is the drift the
  **escalation rule** watches: drift is measured per tracked column
  against the allocation a fresh multi-column rebuild would choose,
  and when *any* column's predicted-CV objective degrades past
  ``cv_degradation_threshold`` times that optimum, the maintainer
  escalates to a full two-pass rebuild (when handed the full table) or
  flags ``needs_rebuild`` in the lineage.

Every refresh writes a *new immutable version* to the store and prunes
old ones, so concurrent readers keep serving the previous version until
the atomic pointer swap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.allocation import allocate_for_columns
from ..core.cvopt import CVOptSampler
from ..core.sample import STRATUM_COLUMN, WEIGHT_COLUMN, StratifiedSample
from ..core.spec import GroupByQuerySpec
from ..core.streaming import StreamingCVOptSampler, cast_to_batch_dtypes
from ..engine.statistics import (
    ColumnStats,
    StrataStatistics,
    collect_strata_statistics,
)
from ..engine.table import Table
from ..obs import default_tracer
from .sharding import join_versions
from .store import SampleStore, StoredSample, derive_columns_block
from .windows import parse_window, partition_by_window, window_sample_name

__all__ = [
    "SampleMaintainer",
    "BuildReport",
    "RefreshReport",
    "StalenessInfo",
    "WindowedBuildReport",
    "allocation_drift",
    "allocation_drift_by_column",
    "staleness_from_lineage",
    "tracked_columns_from_lineage",
]

#: Stand-in CV for groups an allocation cannot estimate (no rows) when
#: comparing objectives — finite so ratios stay comparable.
_CV_CAP = 10.0


@dataclass
class BuildReport:
    """Outcome of a full two-pass build."""

    name: str
    version: str
    rows: int
    strata: int
    budget: int
    source_rows: int
    columns: List[str] = field(default_factory=list)


@dataclass
class WindowedBuildReport:
    """Outcome of a windowed build: one store member per window."""

    name: str  # family base name
    column: str  # timestamp column the ingest was partitioned on
    width: int  # window width, seconds
    starts: List[int] = field(default_factory=list)
    windows: List[BuildReport] = field(default_factory=list)

    @property
    def rows(self) -> int:
        return sum(w.rows for w in self.windows)


@dataclass
class RefreshReport:
    """Outcome of one maintenance round."""

    name: str
    version: str
    action: str  # "incremental" or "rebuild"
    rows_ingested: int
    source_rows: int  # population covered after the refresh
    sample_rows: int
    new_strata: int
    staleness: float  # rows ingested since last full build / base rows
    drift: float  # worst per-column achieved/optimal objective (>= 1)
    needs_rebuild: bool
    columns: List[str] = field(default_factory=list)
    drift_by_column: Dict[str, float] = field(default_factory=dict)


@dataclass
class StalenessInfo:
    """Lineage summary of a stored sample's maintenance state."""

    name: str
    version: str
    refresh_count: int
    rows_ingested: int
    base_rows: int
    staleness: float
    drift: float
    needs_rebuild: bool
    columns: List[str] = field(default_factory=list)
    drift_by_column: Dict[str, float] = field(default_factory=dict)
    #: Newest covered event timestamp (windowed samples; None otherwise).
    max_event_ts: Optional[int] = None


class SampleMaintainer:
    """Builds samples into a store and keeps them fresh.

    Parameters
    ----------
    store:
        The :class:`~repro.warehouse.store.SampleStore` to read/write.
        Builds also accept a
        :class:`~repro.warehouse.sharding.ShardedSampleStore` (same
        ``put``/``prune``); refreshes need the single-store ``get``.
    cv_degradation_threshold:
        Escalate to a full rebuild when any tracked column's
        predicted-CV objective exceeds this multiple of the optimal
        objective at the same budget (on current statistics).
    keep_versions:
        Versions retained per sample after each write (older ones are
        pruned; the current version is always kept).
    """

    def __init__(
        self,
        store: SampleStore,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        headroom: float = 2.0,
    ) -> None:
        if cv_degradation_threshold < 1.0:
            raise ValueError("cv_degradation_threshold must be >= 1")
        self.store = store
        self.cv_degradation_threshold = float(cv_degradation_threshold)
        self.keep_versions = int(keep_versions)
        self.headroom = float(headroom)

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def build(
        self,
        name: str,
        table: Table,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        table_name: Optional[str] = None,
        seed: int = 0,
        action: str = "build",
    ) -> BuildReport:
        """Two-pass CVOPT build, persisted as a new version.

        Every column in ``value_columns`` is *tracked*: its per-stratum
        moments are collected, persisted, and kept exact by subsequent
        refreshes. The first column is the primary (re-balance driver)
        for incremental maintenance. ``action`` is the lineage tag —
        ``"rebuild"`` when an escalated refresh replaces a drifted
        sample rather than creating a new one.
        """
        value_columns = _checked_columns(value_columns)
        sample = _cvopt_sample(table, group_by, value_columns, budget, seed)
        lineage = _fresh_lineage(value_columns, sample.source_rows)
        lineage["action"] = action
        return self._commit(name, sample, value_columns, table_name, lineage)

    def build_windowed(
        self,
        name: str,
        table: Table,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        ts_column: str,
        window,
        table_name: Optional[str] = None,
        seed: int = 0,
    ) -> WindowedBuildReport:
        """Partition ``table`` into tumbling windows on ``ts_column``
        and run one two-pass build per window.

        Each window becomes an independent store member
        (``name@w<start>``) whose meta carries the format-4 ``window``
        block; ``budget`` is *per window* — a k-window sliding answer
        merges ~``k * budget`` rows. The per-window lineage records
        ``max_event_ts``, the newest covered event, which is what
        event-time staleness is measured from.
        """
        value_columns = _checked_columns(value_columns)
        if ts_column not in table:
            raise KeyError(f"timestamp column {ts_column!r} not in table")
        width = parse_window(window)
        report = WindowedBuildReport(
            name=name, column=ts_column, width=width
        )
        for start, part in partition_by_window(
            table, ts_column, width
        ).items():
            sample = _cvopt_sample(
                part, group_by, value_columns, budget, seed
            )
            window_block = {
                "column": ts_column,
                "width": width,
                "start": int(start),
                "end": int(start) + width,
            }
            lineage = _fresh_lineage(value_columns, sample.source_rows)
            lineage["window"] = dict(window_block)
            lineage["max_event_ts"] = int(
                part.column(ts_column).values_numeric().max()
            )
            report.starts.append(int(start))
            report.windows.append(
                self._commit(
                    window_sample_name(name, start), sample,
                    value_columns, table_name, lineage, window_block,
                )
            )
        return report

    def _commit(
        self,
        name: str,
        sample: StratifiedSample,
        value_columns: List[str],
        table_name: Optional[str],
        lineage: Dict,
        window: Optional[Dict] = None,
    ) -> BuildReport:
        """Persist a freshly built sample as a new version and prune."""
        version = self.store.put(
            name, sample, table_name=table_name, lineage=lineage,
            window=window,
        )
        self.store.prune(name, keep=self.keep_versions)
        if not isinstance(version, str):
            # A sharded store commits one version per shard piece.
            version = join_versions(version)
        return BuildReport(
            name=name,
            version=version,
            rows=sample.num_rows,
            strata=sample.allocation.num_strata,
            budget=sample.budget,
            source_rows=sample.source_rows,
            columns=list(value_columns),
        )

    # ------------------------------------------------------------------
    # refreshing
    # ------------------------------------------------------------------
    def refresh(
        self,
        name: str,
        batch: Table,
        full_table: Optional[Table] = None,
        seed: int = 0,
        columns: Optional[Sequence[str]] = None,
    ) -> RefreshReport:
        """Fold an appended ``batch`` into the stored sample.

        ``full_table`` (base table + all batches so far) enables the
        escalation path: when drift crosses the threshold and the full
        table is available, a two-pass rebuild replaces the incremental
        result; without it the refresh still lands but the new version's
        lineage carries ``needs_rebuild: True``.

        ``columns`` overrides the tracked column set for this and
        subsequent refreshes (default: the columns recorded in the
        sample's lineage at build time). Every tracked column's
        per-stratum moments are merged exactly from the batch.
        """
        tracer = default_tracer()
        with tracer.span("maintenance.get", sample=name):
            stored = self.store.get(name)
        lineage = dict(stored.lineage)
        window_block = getattr(stored, "window", None) or lineage.get(
            "window"
        )
        prev_event_ts = lineage.get("max_event_ts")
        value_columns = self._value_columns(stored, batch, columns)
        primary = value_columns[0]
        batch = _align_batch(name, stored.sample, batch)

        old_strata = stored.sample.allocation.num_strata
        with tracer.span(
            "maintenance.ingest", batch_rows=batch.num_rows
        ) as span:
            sampler = StreamingCVOptSampler.resume(
                stored.sample,
                value_columns,
                headroom=self.headroom,
                seed=seed,
            )
            sampler.observe_table(batch)
            sample = sampler.finalize()
            span.set_tag("sample_rows", sample.num_rows)
            span.set_tag("strata", sample.allocation.num_strata)
            span.set_tag(
                "new_strata", sample.allocation.num_strata - old_strata
            )
            span.set_tag("replaced", sampler.replaced)
        # The streaming pass tracks every lineage column; fold the
        # batch's moments into any *other* column the build kept (e.g.
        # a legacy meta whose lineage predates multi-column tracking),
        # so the persisted statistics stay exact across refreshes.
        _merge_statistics(stored.sample.allocation.stats, batch, sample)

        drift_by_column = allocation_drift_by_column(sample, value_columns)
        drift = max(drift_by_column.values())
        rows_ingested = (
            int(lineage.get("rows_ingested", 0)) + batch.num_rows
        )
        base_rows = int(lineage.get("base_rows", 0)) or stored.sample.source_rows
        staleness = rows_ingested / base_rows if base_rows else float("inf")
        needs_rebuild = bool(drift > self.cv_degradation_threshold)

        action = "incremental"
        if needs_rebuild and full_table is not None:
            # Rebuild for every column the original build tracked, not
            # just the maintenance columns.
            stored_stats = stored.sample.allocation.stats
            rebuild_columns = list(
                dict.fromkeys(
                    list(value_columns)
                    + list(stored_stats.columns if stored_stats else ())
                )
            )
            sample = _cvopt_sample(
                full_table, sample.allocation.by, rebuild_columns,
                stored.sample.budget, seed,
            )
            drift_by_column = allocation_drift_by_column(
                sample, value_columns
            )
            drift = max(drift_by_column.values())
            action = "rebuild"
            needs_rebuild = False
            lineage = _fresh_lineage(value_columns, sample.source_rows)
            lineage["action"] = "rebuild"
        else:
            lineage.update(
                action=action,
                refresh_count=int(lineage.get("refresh_count", 0)) + 1,
                rows_ingested=rows_ingested,
                base_rows=base_rows,
                parent_version=stored.version,
            )
        lineage.update(
            value_columns=list(value_columns),
            value_column=primary,  # legacy single-column readers
            primary_column=primary,
            staleness=0.0 if action == "rebuild" else staleness,
            drift=float(drift),
            drift_by_column={
                c: float(d) for c, d in drift_by_column.items()
            },
            needs_rebuild=needs_rebuild,
        )
        if window_block is not None:
            # Keep the window tag and the newest covered event across
            # refreshes (the rebuild path resets lineage wholesale, so
            # re-apply both): event-time staleness is measured from
            # ``max_event_ts``, not from wall-clock ingest.
            lineage["window"] = dict(window_block)
            event_ts = prev_event_ts
            column = window_block.get("column")
            if column and column in batch and batch.num_rows:
                batch_max = int(
                    batch.column(column).values_numeric().max()
                )
                event_ts = (
                    batch_max
                    if event_ts is None
                    else max(int(event_ts), batch_max)
                )
            if event_ts is not None:
                lineage["max_event_ts"] = int(event_ts)
        with tracer.span("maintenance.put", rows=sample.num_rows):
            version = self.store.put(
                name,
                sample,
                table_name=stored.table_name,
                lineage=lineage,
                extra=stored.extra,
                window=window_block,
            )
            self.store.prune(name, keep=self.keep_versions)
        return RefreshReport(
            name=name,
            version=version,
            action=action,
            rows_ingested=batch.num_rows,
            source_rows=sample.source_rows,
            sample_rows=sample.num_rows,
            new_strata=sample.allocation.num_strata - old_strata,
            staleness=0.0 if action == "rebuild" else staleness,
            drift=float(drift),
            needs_rebuild=needs_rebuild,
            columns=list(value_columns),
            drift_by_column={
                c: float(d) for c, d in drift_by_column.items()
            },
        )

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    def staleness(self, name: str) -> StalenessInfo:
        """Maintenance state of the *current* stored version of ``name``.

        Reads the store (one ``meta.json``); raises :class:`KeyError`
        for unknown samples. For a lock-free in-memory view of the
        *served* version, use the warehouse service's lineage snapshot
        instead.
        """
        stored = self.store.get(name)
        lineage = stored.lineage
        base_rows = int(lineage.get("base_rows", 0)) or stored.sample.source_rows
        rows_ingested = int(lineage.get("rows_ingested", 0))
        return StalenessInfo(
            name=name,
            version=stored.version,
            refresh_count=int(lineage.get("refresh_count", 0)),
            rows_ingested=rows_ingested,
            base_rows=base_rows,
            staleness=staleness_from_lineage(
                lineage, stored.sample.source_rows
            ),
            drift=float(lineage.get("drift", 1.0)),
            needs_rebuild=bool(lineage.get("needs_rebuild", False)),
            columns=tracked_columns_from_lineage(
                lineage, stored.sample.allocation.stats
            ),
            drift_by_column={
                c: float(d)
                for c, d in (lineage.get("drift_by_column") or {}).items()
            },
            max_event_ts=(
                int(lineage["max_event_ts"])
                if lineage.get("max_event_ts") is not None
                else None
            ),
        )

    def _value_columns(
        self,
        stored: StoredSample,
        batch: Optional[Table] = None,
        override: Optional[Sequence[str]] = None,
    ) -> List[str]:
        """The columns a refresh must keep exact, validated against the
        batch.

        Lineage is authoritative (``value_columns``, or the legacy
        single ``value_column``); stored statistics are the fallback
        for metas that predate lineage columns. A tracked column that
        is missing from the batch is a hard error — silently
        maintaining a different column would corrupt every contract
        predicted from its moments.
        """
        if override is not None:
            columns = list(dict.fromkeys(override))
            if not columns:
                raise ValueError("columns override must not be empty")
            not_in_sample = [
                c for c in columns if c not in stored.sample.table
            ]
            if not_in_sample:
                payload = [
                    n
                    for n in stored.sample.table.column_names
                    if n not in (WEIGHT_COLUMN, STRATUM_COLUMN)
                ]
                raise ValueError(
                    f"sample {stored.name!r} does not carry column(s) "
                    f"{', '.join(sorted(not_in_sample))}; its rows hold: "
                    f"{', '.join(payload) or '-'} — rebuild the sample to "
                    "track a new column"
                )
        else:
            columns = tracked_columns_from_lineage(
                stored.lineage, stored.sample.allocation.stats
            )
        if not columns:
            raise ValueError(
                f"sample {stored.name!r} carries no value column for "
                "maintenance; rebuild it through SampleMaintainer.build"
            )
        if batch is not None:
            missing = [c for c in columns if c not in batch]
            if missing:
                raise ValueError(
                    f"sample {stored.name!r} tracks value column(s) "
                    f"{', '.join(sorted(missing))} that the batch does not "
                    "carry; batch columns: "
                    f"{', '.join(batch.column_names) or '-'}"
                )
        return columns

    # Backward-compatible single-column accessor (primary column).
    def _value_column(self, stored: StoredSample) -> str:
        return self._value_columns(stored)[0]


def tracked_columns_from_lineage(
    lineage: Dict, stats: Optional[StrataStatistics] = None
) -> List[str]:
    """Tracked value columns recorded in a version's lineage.

    Order matters: the first column is the primary (re-balance driver).
    Legacy lineages carry a single ``value_column``; metas older still
    carry nothing, in which case the persisted statistics columns are
    the best available record. Delegates to the store's canonical
    derivation so the meta ``columns`` block and the maintainer can
    never disagree.
    """
    return list(derive_columns_block(lineage, stats)["tracked"])


def staleness_from_lineage(
    lineage: Dict,
    fallback_base_rows: int = 0,
    now: Optional[float] = None,
) -> float:
    """Staleness ratio recorded in a version's lineage dict.

    For an un-windowed sample, staleness is *rows ingested since the
    last full build* divided by the base-table size at that build. A
    freshly built (or never refreshed) sample is 0.0; legacy metadata
    without ``base_rows`` falls back to ``fallback_base_rows``, and a
    positive ingest against an unknown base yields ``inf`` (maximally
    stale — nothing can be promised about it).

    A *windowed* sample (lineage carries a ``window`` block and
    ``max_event_ts``) measures staleness in **event time** instead:
    how many window widths the newest covered event lags behind ``now``
    (wall clock by default; tests pass it explicitly). Wall-clock
    ingest says nothing about a window that froze long ago —
    ``max_staleness`` on a windowed contract must mean "the data is at
    most this many windows behind".
    """
    window = lineage.get("window")
    event_ts = lineage.get("max_event_ts")
    if window and event_ts is not None:
        width = int(window.get("width", 0)) or 1
        if now is None:
            now = time.time()
        return max(0.0, (float(now) - float(event_ts)) / width)
    rows_ingested = int(lineage.get("rows_ingested", 0))
    if not rows_ingested:
        return 0.0
    base_rows = int(lineage.get("base_rows", 0)) or int(fallback_base_rows)
    return rows_ingested / base_rows if base_rows else float("inf")


def allocation_drift(
    sample: StratifiedSample, value_column: str, cv_cap: float = _CV_CAP
) -> float:
    """How far a sample's allocation is from optimal for one column.

    Returns the ratio of the achieved predicted-CV l2 objective to the
    objective of the *optimal* allocation at the same budget, both
    computed from the sample's per-stratum statistics; 1.0 is perfect.
    """
    return allocation_drift_by_column(
        sample, [value_column], cv_cap=cv_cap
    )[value_column]


def allocation_drift_by_column(
    sample: StratifiedSample,
    columns: Sequence[str],
    cv_cap: float = _CV_CAP,
) -> Dict[str, float]:
    """Per-column drift of a sample's allocation.

    The reference allocation is the one a fresh multi-column rebuild
    would choose for the *same* budget and column set
    (:func:`~repro.core.allocation.allocate_for_columns`), so a freshly
    rebuilt sample measures ~1.0 on every column by construction. Each
    column's drift is then the ratio of its achieved predicted-CV l2
    objective to its objective under that reference — "how much would a
    rebuild help this column". Columns without persisted statistics
    report 1.0 (nothing to compare).
    """
    from ..aqp.planning import predict_group_cvs

    columns = list(dict.fromkeys(columns))
    allocation = sample.allocation
    stats = allocation.stats
    out = {c: 1.0 for c in columns}
    if stats is None:
        return out
    known = [c for c in columns if c in stats.columns]
    if not known:
        return out
    optimal_sizes = allocate_for_columns(
        stats, known, sample.budget
    )
    for column in known:
        data_cvs = np.nan_to_num(
            stats.stats_for(column).cv(mean_floor=1e-9)
        )
        achieved = predict_group_cvs(
            allocation.populations, data_cvs, allocation.sizes
        )
        optimal = predict_group_cvs(
            allocation.populations, data_cvs, optimal_sizes
        )
        achieved = np.where(np.isfinite(achieved), achieved, cv_cap)
        optimal = np.where(np.isfinite(optimal), optimal, cv_cap)
        a = float(np.sqrt((achieved**2).sum()))
        o = float(np.sqrt((optimal**2).sum()))
        if o == 0.0:
            out[column] = 1.0 if a == 0.0 else float("inf")
        else:
            out[column] = a / o
    return out


def _merge_statistics(
    stored: Optional[StrataStatistics],
    batch: Table,
    sample: StratifiedSample,
) -> None:
    """Extend the refreshed sample's statistics beyond the streamed
    columns.

    Moments are additive, so for every column the original build
    tracked but the streaming pass did not (legacy metas), per-stratum
    ``(count, total, total_sq)`` over the extended population is
    exactly ``stored + batch`` — one vectorized pass over the batch, no
    rescan of old data.
    """
    final = sample.allocation.stats
    if stored is None or final is None:
        return
    columns = [
        c
        for c in stored.columns
        if c not in final.columns and c in batch
    ]
    if not columns:
        return
    batch_stats = collect_strata_statistics(
        batch, sample.allocation.by, columns
    )
    stored_idx = {tuple(k): i for i, k in enumerate(stored.keys)}
    batch_idx = {tuple(k): i for i, k in enumerate(batch_stats.keys)}
    n = final.num_strata
    for column in columns:
        s_cs = stored.stats_for(column)
        b_cs = batch_stats.stats_for(column)
        count = np.zeros(n)
        total = np.zeros(n)
        total_sq = np.zeros(n)
        for i, key in enumerate(final.keys):
            k = tuple(key)
            si = stored_idx.get(k)
            if si is not None:
                count[i] += s_cs.count[si]
                total[i] += s_cs.total[si]
                total_sq[i] += s_cs.total_sq[si]
            bi = batch_idx.get(k)
            if bi is not None:
                count[i] += b_cs.count[bi]
                total[i] += b_cs.total[bi]
                total_sq[i] += b_cs.total_sq[bi]
        final.columns[column] = ColumnStats(
            count=count, total=total, total_sq=total_sq
        )


def _checked_columns(value_columns: Sequence[str]) -> List[str]:
    columns = list(dict.fromkeys(value_columns))
    if not columns:
        raise ValueError("need at least one value column")
    return columns


def _cvopt_sample(
    table: Table,
    group_by: Sequence[str],
    value_columns: Sequence[str],
    budget: int,
    seed: int,
) -> StratifiedSample:
    """The one two-pass CVOPT draw every build and rebuild goes through."""
    spec = GroupByQuerySpec(
        group_by=tuple(group_by), aggregates=tuple(value_columns)
    )
    return CVOptSampler([spec]).sample(table, budget, seed=seed)


def _fresh_lineage(value_columns: Sequence[str], base_rows: int) -> Dict:
    columns = list(dict.fromkeys(value_columns))
    return {
        "action": "build",
        "refresh_count": 0,
        "rows_ingested": 0,
        "base_rows": int(base_rows),
        "value_columns": columns,
        "value_column": columns[0],  # legacy single-column readers
        "primary_column": columns[0],
        "staleness": 0.0,
        "drift": 1.0,
        "drift_by_column": {c: 1.0 for c in columns},
        "needs_rebuild": False,
    }


def _align_batch(name: str, sample: StratifiedSample, batch: Table) -> Table:
    """Project ``batch`` onto the sample's payload columns.

    Missing columns are an error; extra ones are dropped — retained
    rows from different eras must share one column set. Column dtypes
    follow :func:`~repro.core.streaming.cast_to_batch_dtypes`, checked
    here so a STRING/numeric clash is refused, by sample name, before
    any maintenance state exists.
    """
    payload = sample.table.without_columns([WEIGHT_COLUMN, STRATUM_COLUMN])
    missing = [n for n in payload.column_names if n not in batch]
    if missing:
        raise ValueError(
            f"batch is missing sample columns: {', '.join(missing)}"
        )
    cast_to_batch_dtypes(payload, batch, owner=f"sample {name!r}")
    return batch.select(payload.column_names)
