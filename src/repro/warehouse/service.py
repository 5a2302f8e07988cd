"""The warehouse's one serving front.

:class:`WarehouseService` glues the persistent store, the maintenance
pipeline and the AQP router into one thread-safe endpoint, over either
topology (:mod:`repro.warehouse.topology`): sample rows in this process
(the default) or spread over N shard workers
(:class:`~repro.warehouse.sharded_service.ShardedWarehouseService`).
Everything a query or a maintenance round *means* lives here, once —
routing, contracts, the answer cache, windowed families, locking; the
topology only says where rows are and how a routed query reaches them.

* **reads** (:meth:`query`) run concurrently under a read-write lock's
  shared side, route through an :class:`~repro.aqp.session.AQPSession`
  (sample routing + HT-weighted plans + compiled-plan cache), and are
  memoized in an LRU *answer* cache keyed by the store epoch — so a
  dashboard re-issuing the same SQL is a dictionary hit;
* **writes** (:meth:`build`, :meth:`refresh`, :meth:`register_table`)
  do their heavy lifting — two-pass builds, streaming ingests, store
  I/O, worker RPCs — *outside* the write lock, then take it only for
  the in-memory swap: replace the routed sample, append the batch to
  the base table (so exact fallback stays consistent), bump the epoch,
  drop stale cached answers. Readers therefore block only for the swap,
  never for the sampling work; concurrent writers are serialized by a
  separate maintenance mutex, held once per maintenance round.

Thread-safety note: the session's internal plan cache is shared by
concurrent readers; its mutations are benign under the GIL (worst case
a plan is compiled twice), while every structural change to tables or
samples happens under the exclusive side of the lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from ..aqp.session import AQPResult, AQPSession, RouteDecision
from ..concurrency import LRUCache, RWLock
from ..engine.groupcache import default_group_code_cache
from ..engine.sql.parser import parse_query
from ..engine.sql.planner import extract_time_bounds
from ..engine.table import Table
from ..obs import default_registry, default_tracer
from ..workload.model import Workload
from .advisor import AdvisorPlan, advise
from .contracts import (
    AccuracyContract,
    AccuracyContractViolation,
    ContractedResult,
    build_contract,
)
from .maintenance import (
    BuildReport,
    RefreshReport,
    StalenessInfo,
    WindowedBuildReport,
    staleness_from_lineage,
    tracked_columns_from_lineage,
)
from .topology import LiveSample, LocalTopology
from .windows import (
    SLIDE_SUFFIX,
    covering_window_starts,
    parse_window_sample_name,
    partition_by_window,
    window_decay_factors,
    window_sample_name,
)

__all__ = ["WarehouseService", "WindowedRefreshReport"]

_TRACER = default_tracer()
_QUERIES = default_registry().counter(
    "repro_queries_total",
    "Queries answered by the warehouse, by route taken",
    ["route"],
)
_QUERY_SECONDS = default_registry().histogram(
    "repro_query_seconds",
    "End-to-end warehouse query latency in seconds",
)
_ANSWER_CACHE = default_registry().counter(
    "repro_answer_cache_total",
    "Answer-cache lookups by result",
    ["result"],
)


def _route_label(route: RouteDecision) -> str:
    return "sample" if route.approximate else "exact"


@dataclass
class WindowedRefreshReport:
    """Outcome of rolling a windowed family forward by one batch.

    Duck-types the ``action`` / ``version`` / ``rows_ingested`` fields
    of :class:`~repro.warehouse.maintenance.RefreshReport` so callers
    that only log the outcome (the maintenance daemon, the CLI) handle
    windowed and plain refreshes identically.
    """

    name: str  # family base name
    action: str = "windowed"
    version: Optional[str] = None  # newest open-window version touched
    rows_ingested: int = 0
    #: Window starts freshly built because the batch opened them.
    opened: List[int] = field(default_factory=list)
    #: Open-window starts incrementally refreshed in place.
    refreshed: List[int] = field(default_factory=list)
    #: Window starts dropped by retention this round.
    expired: List[int] = field(default_factory=list)
    #: Late rows addressed to already-closed windows. They still grow
    #: the base table (exact answers see them) but are *not* folded
    #: into the frozen window samples.
    frozen_rows: int = 0
    #: Underlying per-window reports, in processing order.
    reports: List = field(default_factory=list)


class WarehouseService:
    """Thread-safe query endpoint over a persistent sample warehouse.

    Construct with a store root (or :class:`SampleStore`) and a mapping
    of base tables; stored samples whose base table is registered are
    adopted immediately, the rest wait as orphans until
    :meth:`register_table` supplies their table. :meth:`query` answers
    SQL through the AQP router; :meth:`query_with_contract` additionally
    attaches a per-query :class:`~repro.warehouse.contracts.AccuracyContract`
    and enforces caller accuracy constraints. All public methods are
    safe to call from many threads; see the module docstring for the
    locking discipline.
    """

    def __init__(
        self,
        store,
        tables: Optional[Mapping[str, Table]] = None,
        cache_size: int = 128,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        backend=None,
        cache_scope: str = "",
    ) -> None:
        self._start(
            LocalTopology(
                store,
                backend=backend,
                cv_degradation_threshold=cv_degradation_threshold,
                keep_versions=keep_versions,
            ),
            tables,
            cache_size,
            cache_scope,
        )

    def _start(
        self, topology, tables, cache_size: int, cache_scope: str = ""
    ) -> None:
        """Shared constructor body: serve ``topology``'s samples."""
        self._topology = topology
        self.store = topology.store
        self.maintainer = topology.maintainer
        self._session = AQPSession(tables)
        # Distinguishes services sharing one process that serve
        # different row sets under the same (sample, version) — e.g.
        # in-process shard workers — in the group-code cache key.
        self._cache_scope = cache_scope
        self._lock = RWLock()
        self._maintenance = threading.Lock()  # serializes writers' work
        self._cache = LRUCache(cache_size)
        self._epoch = 0
        self._live: Dict[str, LiveSample] = {}  # samples being served
        self._orphans: Dict[str, str] = {}  # sample -> missing base table
        #: Windowed sample families, keyed by base name. Each value
        #: holds the partitioning config and the retained members:
        #: ``{"column", "width", "decay", "retention", "table_name",
        #: "group_by", "value_columns", "budget",
        #: "windows": {start: version}}``. ``decay``/``retention`` are
        #: serving-time parameters declared at build time; a
        #: warm-started family defaults to no decay and unbounded
        #: retention until the next :meth:`build_windowed`.
        self._families: Dict[str, Dict] = {}
        #: Signature of each registered slide sample:
        #: ``base -> ((start, version), ...)`` it was merged from, so a
        #: repeat query over the same range skips the re-merge (and the
        #: epoch bump that would empty the answer cache).
        self._slides: Dict[str, tuple] = {}
        self.queries_served = 0
        # Warm start: adopt every stored sample whose base table is
        # registered. Family bookkeeping survives orphaning — refresh
        # rolls windows forward purely against the store, so a
        # maintenance-only process (no base table registered, e.g.
        # ``warehouse refresh`` from the CLI) still routes batches by
        # window.
        for name, view in topology.live().items():
            self._adopt_locked(name, view)

    # ------------------------------------------------------------------
    # registration / building
    # ------------------------------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        """Register (or replace) a base table; adopts any stored samples
        that were waiting for it."""
        with self._maintenance:
            waiting = [s for s, t in self._orphans.items() if t == name]
            views = self._topology.live(waiting) if waiting else {}
            with self._lock.write():
                self._session.register_table(name, table)
                for sample_name, view in views.items():
                    self._adopt_locked(sample_name, view)
                self._bump()

    def build(
        self,
        name: str,
        table_name: str,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        seed: int = 0,
    ) -> BuildReport:
        """Two-pass build into the store, then swap it live."""
        with self._maintenance:
            report = self.maintainer.build(
                name,
                self._base_table(table_name),
                group_by=group_by,
                value_columns=value_columns,
                budget=budget,
                table_name=table_name,
                seed=seed,
            )
            view = self._topology.live([name], reload=True)[name]
            with self._lock.write():
                self._adopt_locked(name, view)
                self._bump()
        return report

    def build_windowed(
        self,
        name: str,
        table_name: str,
        group_by: Sequence[str],
        value_columns: Sequence[str],
        budget: int,
        ts_column: str,
        window: str,
        decay: Optional[float] = None,
        retention: Optional[int] = None,
        seed: int = 0,
    ) -> WindowedBuildReport:
        """Build a *windowed family*: one store member per tumbling
        window of ``ts_column``, all swapped live at once.

        ``window`` is a width spec (``"1h"``, ``"30m"``, ``3600``);
        ``budget`` is per window. ``decay`` (0 < decay <= 1) applies
        exponential age-weighting when sliding-window queries merge
        windows — each window older than the newest is scaled by
        ``decay`` per window of age. ``retention`` keeps only the
        newest N windows; refreshes prune older members and queries
        reaching below the horizon are rejected on the contract path
        (HTTP 412). Queries with a ``WHERE ts_column >= ... [AND <
        ...]`` predicate covered by retained windows route to the
        member (single window) or to a merged slide sample
        (:data:`~repro.warehouse.windows.SLIDE_SUFFIX`) whose
        per-(stratum, column) moments are summed exactly. Windows and
        shards partition rows along orthogonal axes (time vs. stratum
        hash), so all of this holds on either topology.
        """
        if decay is not None and not (0.0 < float(decay) <= 1.0):
            raise ValueError("decay must be in (0, 1]")
        if retention is not None and int(retention) < 1:
            raise ValueError("retention must be >= 1 window")
        with self._maintenance:
            report = self.maintainer.build_windowed(
                name,
                self._base_table(table_name),
                group_by=group_by,
                value_columns=value_columns,
                budget=budget,
                ts_column=ts_column,
                window=window,
                table_name=table_name,
                seed=seed,
            )
            family = {
                "column": ts_column,
                "width": report.width,
                "decay": float(decay) if decay is not None else None,
                "retention": int(retention) if retention else None,
                "table_name": table_name,
                "group_by": list(group_by),
                "value_columns": list(dict.fromkeys(value_columns)),
                "budget": int(budget),
                "windows": {},
            }
            keep = sorted(report.starts)
            expired: List[int] = []
            if retention and len(keep) > int(retention):
                expired = keep[: -int(retention)]
                keep = keep[-int(retention):]
            views = self._topology.live(
                [window_sample_name(name, start) for start in keep],
                reload=True,
            )
            with self._lock.write():
                self._drop_slide_locked(name)
                self._families[name] = family
                for member, view in views.items():
                    self._adopt_locked(member, view)
                self._bump()
            for start in expired:
                self._topology.delete(window_sample_name(name, start))
        return report

    # ------------------------------------------------------------------
    # maintenance
    # ------------------------------------------------------------------
    def refresh(
        self,
        name: str,
        batch: Table,
        seed: int = 0,
        columns: Optional[Sequence[str]] = None,
        full_table: Optional[Table] = None,
    ) -> RefreshReport:
        """Fold an appended batch into sample ``name`` and swap the new
        version live; the base table grows by ``batch`` too, so exact
        fallback keeps matching the sampled reality. ``columns``
        overrides the tracked value-column set for this and subsequent
        refreshes (default: the build-time lineage). When drift crosses
        the escalation threshold the sample is rebuilt from the grown
        base table — or, in a maintenance-only process that registered
        no base table, from ``full_table`` (the complete data, this
        batch included).

        When ``name`` is a windowed family base, the batch is instead
        partitioned by the family's timestamp column and rolled
        forward window by window (see :meth:`_refresh_windowed`);
        the return value is then a :class:`WindowedRefreshReport`."""
        if name in self._families:
            return self._refresh_windowed(name, batch, seed=seed)
        with self._maintenance:
            if name in self._live:
                table_name = self._live[name].table_name
            elif name in self._orphans:
                table_name = self._orphans[name]
            else:  # committed by another process since warm start
                table_name = self._topology.live([name])[name].table_name
            grown = self._grown(table_name, batch)
            report = self._topology.ingest(
                name,
                batch,
                full_table=grown if grown is not None else full_table,
                seed=seed,
                columns=columns,
            )
            view = self._topology.live([name])[name]
            with self._lock.write():
                if grown is not None:
                    self._session.register_table(table_name, grown)
                self._adopt_locked(name, view)
                self._bump()
        return report

    def _refresh_windowed(
        self, name: str, batch: Table, seed: int = 0
    ) -> WindowedRefreshReport:
        """Roll windowed family ``name`` forward by one batch.

        Batch rows are partitioned by the family's timestamp column:

        * rows in the **newest retained window** refresh that member
          incrementally (streaming resume, moments merged exactly);
        * rows **past** it open fresh windows (full per-window builds
          at the family budget);
        * rows addressed to an already-**closed** window are frozen
          out of the sample — they still grow the base table, so exact
          answers (and ``WHERE`` re-filters) see them, but a closed
          window's published moments never move;
        * with ``retention`` set, members that fall off the horizon
          are dropped from routing and deleted from the store.

        The whole batch is one maintenance critical section and one
        swap: readers see either none or all of it.
        """
        family = self._families[name]
        column = family["column"]
        width = family["width"]
        table_name = family["table_name"]
        with self._maintenance:
            if column not in batch:
                raise ValueError(
                    f"windowed family {name!r} partitions on column "
                    f"{column!r}, which the batch does not carry"
                )
            report = WindowedRefreshReport(
                name=name, rows_ingested=batch.num_rows
            )
            newest = max(family["windows"], default=None)
            fresh_parts = []
            for start, part in partition_by_window(
                batch, column, width
            ).items():
                if newest is not None and start < newest:
                    report.frozen_rows += part.num_rows
                elif start in family["windows"]:
                    # No full table: a window member is never rebuilt
                    # from all of history.
                    sub = self._topology.ingest(
                        window_sample_name(name, start), part,
                        seed=seed, columns=family["value_columns"],
                    )
                    report.refreshed.append(start)
                    report.reports.append(sub)
                    report.version = sub.version
                else:
                    fresh_parts.append(part)
            if fresh_parts:
                fresh = fresh_parts[0]
                for part in fresh_parts[1:]:
                    fresh = fresh.concat(part)
                built = self.maintainer.build_windowed(
                    name,
                    fresh,
                    group_by=family["group_by"],
                    value_columns=family["value_columns"],
                    budget=family["budget"],
                    ts_column=column,
                    window=width,
                    table_name=table_name,
                    seed=seed,
                )
                report.opened.extend(built.starts)
                report.reports.extend(built.windows)
                if built.windows:
                    report.version = built.windows[-1].version
            retention = family.get("retention")
            retained = set(family["windows"]) | set(report.opened)
            if retention and retained:
                floor = max(retained) - (int(retention) - 1) * width
                report.expired = sorted(s for s in retained if s < floor)

            def members(starts):
                return [
                    window_sample_name(name, s)
                    for s in starts
                    if s not in report.expired
                ]

            views = {
                **self._topology.live(members(report.opened), reload=True),
                **self._topology.live(members(report.refreshed)),
            }
            grown = self._grown(table_name, batch)
            with self._lock.write():
                if grown is not None:
                    self._session.register_table(table_name, grown)
                # Without a base table here (maintenance-only process)
                # the store write is the durable outcome; the members
                # just stay orphaned for serving.
                for member, view in views.items():
                    self._adopt_locked(member, view)
                for start in report.expired:
                    self._drop_locked(window_sample_name(name, start))
                    family["windows"].pop(start, None)
                self._drop_slide_locked(name)
                self._bump()
            for start in report.expired:
                self._topology.delete(window_sample_name(name, start))
        return report

    def publish_stored(self, name: str, stored=None) -> bool:
        """Swap a store version of ``name`` live (current unless a
        :class:`~repro.warehouse.store.StoredSample` is given).

        This is the adoption half of :meth:`refresh` on its own, used
        by shard workers after an out-of-band store write (their own
        maintainer run, or a central rebuild pushed into the shard
        store) to hot-swap the new version without re-running the
        ingest. Returns ``True`` when the sample went live, ``False``
        when it stays orphaned (base table not registered).
        """
        with self._maintenance:
            view = (
                LiveSample.from_stored(stored)
                if stored is not None
                else self._topology.live([name], reload=True)[name]
            )
            with self._lock.write():
                serving = self._adopt_locked(name, view)
                self._bump()
        return serving

    def drop_sample(self, name: str) -> None:
        """Stop serving ``name``; the store is not touched."""
        with self._maintenance:
            with self._lock.write():
                self._drop_locked(name)
                self._bump()

    def snapshot_sample(self, name: str):
        """Consistent ``(sample, version, lineage)`` snapshot of one
        live sample under the read lock. Versions are immutable, so the
        returned objects stay valid after a concurrent hot-swap."""
        with self._lock.read():
            sample = self._session.catalog.get(name)
            view = self._live.get(name)
            return (
                sample,
                view.version if view else None,
                dict(view.lineage) if view else {},
            )

    def staleness(self, name: str) -> StalenessInfo:
        """Maintenance state of the current *stored* version of
        ``name`` (reads the store; raises :class:`KeyError` for unknown
        samples). See :meth:`served_lineages` for the in-memory view of
        what is being served."""
        return self.maintainer.staleness(name)

    # ------------------------------------------------------------------
    # advising
    # ------------------------------------------------------------------
    def advise(
        self,
        workload: Workload,
        table_name: str,
        storage_budget: int,
        target_cv: float = 0.05,
        materialize: bool = False,
        seed: int = 0,
    ) -> AdvisorPlan:
        """Recommend (and optionally build) samples for a workload."""
        plan = advise(
            workload,
            self._base_table(table_name),
            storage_budget,
            target_cv=target_cv,
        )
        if materialize:
            for rec in plan.recommendations:
                cand = rec.candidate
                self.build(
                    rec.name,
                    table_name,
                    group_by=cand.attrs,
                    value_columns=cand.agg_columns,
                    budget=cand.budget,
                    seed=seed,
                )
        return plan

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def query(self, sql: str, mode: str = "auto") -> AQPResult:
        """Answer ``sql``; concurrent-safe, memoized per store epoch."""
        t0 = time.perf_counter()
        self._ensure_slide(sql)
        key = (self._epoch, mode, sql)
        cached = self._lookup(key, t0)
        if cached is not None:
            return cached
        with self._lock.read():
            result, _ = self._topology.query(
                self._session, self._live, sql, mode, None
            )
        self.queries_served += 1
        # A writer may have swapped while we executed; only cache
        # results that are still current.
        if key[0] == self._epoch:
            self._cache.put(key, result)
        _QUERIES.inc(route=_route_label(result.route))
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return result

    def query_with_contract(
        self,
        sql: str,
        mode: str = "auto",
        max_cv: Optional[float] = None,
        max_staleness: Optional[float] = None,
        on_violation: str = "fallback",
    ) -> ContractedResult:
        """Answer ``sql`` with an accuracy contract attached.

        The contract (per-group predicted CV, served sample version,
        staleness, exact-fallback flag) is snapshotted under the same
        read lock as the execution, and its ``sample_version`` is the
        one the topology reports having computed the answer from, so it
        names exactly the version whose rows produced the answer — even
        while writers (or shard workers) hot-swap versions concurrently.

        ``max_cv`` bounds the worst per-group predicted CV for the
        column(s) the query aggregates and ``max_staleness`` bounds the
        served sample's staleness ratio. ``max_cv`` is also handed to
        the router, which *prefers* a sample satisfying it on the
        queried columns over the globally-lowest-CV sample — exact
        fallback happens only when no stored sample qualifies. When the
        routed sample still violates a constraint, the query is re-run
        exactly (``on_violation="fallback"``, the default — exact
        answers satisfy any accuracy constraint) or rejected with
        :class:`AccuracyContractViolation` (``on_violation="reject"``,
        or ``mode="approx"`` where exact execution is not allowed).

        Thread-safe; memoized per store epoch like :meth:`query`.
        Raises :class:`ValueError` for a bad ``mode``/``on_violation``
        and propagates SQL errors from the engine.
        """
        if on_violation not in ("fallback", "reject"):
            raise ValueError("on_violation must be 'fallback' or 'reject'")
        t0 = time.perf_counter()
        below_retention = self._ensure_slide(sql)
        if below_retention is not None and (
            on_violation == "reject" or mode == "approx"
        ):
            # The requested time range reaches below the windowed
            # family's retention horizon: no retained sample can speak
            # for those rows, and the caller refused exact fallback.
            constraints: Dict[str, float] = {}
            if max_cv is not None:
                constraints["max_cv"] = float(max_cv)
            if max_staleness is not None:
                constraints["max_staleness"] = float(max_staleness)
            _QUERIES.inc(route="rejected")
            raise AccuracyContractViolation(
                [below_retention],
                AccuracyContract(
                    executed="exact",
                    fallback_exact=False,
                    reason=below_retention,
                    constraints=constraints,
                    satisfied=False,
                ),
            )
        key = ("contract", self._epoch, mode, sql, max_cv, max_staleness,
               on_violation)
        cached = self._lookup(key, t0)
        if cached is not None:
            return cached
        with self._lock.read():
            result, version = self._topology.query(
                self._session, self._live, sql, mode, max_cv
            )
            route_label = _route_label(result.route)
            with _TRACER.span("warehouse.contract"):
                contract, violations = self._contract_for(
                    result.route, version, mode, max_cv, max_staleness
                )
            if violations:
                if on_violation == "reject" or mode == "approx":
                    _QUERIES.inc(route="rejected")
                    raise AccuracyContractViolation(violations, contract)
                with _TRACER.span("warehouse.fallback_exact"):
                    result = self._session.query(sql, mode="exact")
                route_label = "fallback"
                contract = AccuracyContract(
                    executed="exact",
                    fallback_exact=True,
                    reason="accuracy constraints unsatisfied by stored "
                    "samples (" + "; ".join(violations) + "); executed "
                    "exactly",
                    constraints=contract.constraints,
                    satisfied=True,
                )
        self.queries_served += 1
        answer = ContractedResult(result=result, contract=contract)
        if key[1] == self._epoch:
            self._cache.put(key, answer)
        _QUERIES.inc(route=route_label)
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return answer

    def execute(self, sql: str) -> Table:
        """Exact execution over the base tables; returns the answer
        :class:`~repro.engine.table.Table` (no routing provenance)."""
        return self.query(sql, mode="exact").table

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Monotonic swap counter; bumps on every structural change."""
        return self._epoch

    def samples(self) -> List[str]:
        """Names of the samples currently live in the router."""
        with self._lock.read():
            return self._session.samples()

    def served_versions(self) -> Dict[str, str]:
        """Snapshot of ``{sample name: served store version}``."""
        with self._lock.read():
            return {name: v.version for name, v in self._live.items()}

    def served_lineages(self) -> Dict[str, Dict]:
        """Snapshot of each served sample's lineage (staleness, drift,
        refresh history) — in-memory, no store I/O."""
        with self._lock.read():
            return {name: dict(v.lineage) for name, v in self._live.items()}

    def sample_summaries(self) -> List[Dict]:
        """One JSON-ready dict per live sample (version, shape,
        staleness, drift) from in-memory state — cheap enough to serve
        on every ``GET /samples`` without touching the store."""
        with self._lock.read():
            out = []
            for name, view in self._live.items():
                lineage = view.lineage
                allocation = view.sample.allocation
                tracked = tracked_columns_from_lineage(
                    lineage, allocation.stats
                )
                out.append(
                    {
                        "name": name,
                        "version": view.version,
                        "window": self._session.sample_window(name),
                        "rows": view.rows,
                        "strata": allocation.num_strata,
                        "by": list(allocation.by),
                        "columns": tracked,
                        "primary_column": tracked[0] if tracked else None,
                        "staleness": staleness_from_lineage(lineage),
                        "drift": float(lineage.get("drift", 1.0)),
                        "drift_by_column": {
                            c: float(d)
                            for c, d in (
                                lineage.get("drift_by_column") or {}
                            ).items()
                        },
                        "needs_rebuild": bool(
                            lineage.get("needs_rebuild", False)
                        ),
                        **self._topology.summary_extra,
                    }
                )
            return out

    def health(self) -> Dict:
        """Liveness snapshot (no store I/O) for ``GET /healthz``."""
        with self._lock.read():
            return {
                "status": "ok",
                "epoch": self._epoch,
                "tables": len(self._session.tables),
                "samples": len(self._live),
                "queries_served": self.queries_served,
                **self._topology.health(),
            }

    def stats(self) -> Dict:
        """Serving counters plus the topology's store accounting (and,
        when sharded, every worker's own snapshot) in one dict."""
        with self._lock.read():
            live = dict(self._live)
            epoch = self._epoch
            tables = {
                name: table.num_rows
                for name, table in self._session.tables.items()
            }
        blocks = self._topology.stats(live, self._session)
        return {
            "epoch": epoch,
            "queries_served": self.queries_served,
            "store": blocks.pop("store"),
            "answer_cache": self._cache.counters(),
            "groupcode_cache": default_group_code_cache().counters(),
            "tables": tables,
            **blocks,
        }

    def close(self) -> None:
        """Release whatever the topology holds (shard workers, the
        fan-out pool); a no-op for the local one."""
        self._topology.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _lookup(self, key, t0: float):
        """Answer-cache probe with its counters; the hit path ends here."""
        cached = self._cache.get(key)
        if cached is None:
            _ANSWER_CACHE.inc(result="miss")
            _TRACER.annotate(answer_cache="miss")
            return None
        self.queries_served += 1
        _ANSWER_CACHE.inc(result="hit")
        _TRACER.annotate(answer_cache="hit")
        _QUERIES.inc(route="cached")
        _QUERY_SECONDS.observe(time.perf_counter() - t0)
        return cached

    def _base_table(self, table_name: str) -> Table:
        with self._lock.read():
            table = self._session.tables.get(table_name)
        if table is None:
            raise KeyError(f"unknown base table {table_name!r}")
        return table

    def _grown(self, table_name: Optional[str], batch: Table):
        """The base table with ``batch`` appended (``None`` when this
        process holds no such table)."""
        with self._lock.read():
            base = self._session.tables.get(table_name)
        return base.concat(batch) if base is not None else None

    def _contract_for(
        self,
        route: RouteDecision,
        version: Optional[str],
        mode: str,
        max_cv: Optional[float],
        max_staleness: Optional[float],
    ):
        """Contract + violation list for a routing decision.

        Caller must hold the read lock, so the lineage/allocation
        snapshot is consistent with the sample the route was computed
        against; ``version`` is what the topology says answered.
        """
        if not route.approximate:
            return build_contract(
                route, mode, max_cv, max_staleness,
                sample_version=None, lineage={}, staleness=0.0,
                group_keys=None,
            )
        view = self._live[route.sample_name]
        return build_contract(
            route, mode, max_cv, max_staleness,
            sample_version=version,
            lineage=view.lineage,
            staleness=staleness_from_lineage(view.lineage),
            group_keys=tuple(
                tuple(k) for k in view.sample.allocation.keys
            ),
            window_bounds=route.window_bounds,
        )

    def _ensure_slide(self, sql: str) -> Optional[str]:
        """Materialize the merged sliding-window sample ``sql`` needs.

        Called before every query while windowed families exist. When
        the query's WHERE clause pins a time range on a family's
        timestamp column and the retained windows cover it, the
        covering members are merged (moments summed exactly, decay
        applied when the family declares it) and registered as
        ``<base>@slide`` so the router can pick it; a repeat query over
        the same range reuses the previous merge via the
        ``(start, version)`` signature and changes nothing.

        Returns a violation message when the range reaches *below* the
        retention horizon (the contract path turns that into a 412),
        otherwise ``None`` — ranges beyond the newest window or over a
        gap simply fall back to exact, which still has every row.
        """
        if not self._families:
            return None
        try:
            parsed = parse_query(sql)
        except Exception:
            return None  # let the session raise the real error
        table_ref = getattr(parsed.from_clause, "name", None)
        for base, family in list(self._families.items()):
            if table_ref != family["table_name"]:
                continue
            bounds = extract_time_bounds(parsed, family["column"])
            if bounds is None:
                continue
            lo, hi = bounds
            if lo is None:
                continue  # unbounded past: would need every window ever
            with self._lock.read():
                retained = sorted(family["windows"])
            if not retained:
                continue
            width = family["width"]
            horizon = retained[-1] + width
            if lo < retained[0]:
                hi_text = hi if hi is not None else "now"
                return (
                    f"time range [{lo}, {hi_text}) on "
                    f"{family['column']!r} reaches below the retention "
                    f"horizon of windowed sample {base!r} (oldest "
                    f"retained window starts at {retained[0]})"
                )
            hi_eff = hi if hi is not None else horizon
            if hi_eff <= lo or hi_eff > horizon:
                continue  # empty or not-yet-sampled range: exact
            needed = covering_window_starts(lo, hi_eff, width)
            if any(start not in family["windows"] for start in needed):
                continue  # gap window: exact fallback
            if len(needed) > 1:
                self._materialize_slide(base, family, needed)
        return None

    def _materialize_slide(
        self, base: str, family: Dict, starts: Sequence[int]
    ) -> None:
        """Merge the members at ``starts`` into the family's slide
        sample and swap it live (no-op when the registered slide was
        merged from exactly these versions)."""
        slide = base + SLIDE_SUFFIX

        def current_signature():
            with self._lock.read():
                return tuple(
                    (start, family["windows"].get(start))
                    for start in starts
                )

        if self._slides.get(slide) == current_signature():
            return
        with self._maintenance:
            signature = current_signature()
            if self._slides.get(slide) == signature:
                return
            names = [window_sample_name(base, start) for start in starts]
            with self._lock.read():
                members = [self._live.get(member) for member in names]
            if any(m is None for m in members):
                return  # member expired or not serving; exact fallback
            factors = None
            if family.get("decay"):
                by_start = window_decay_factors(
                    starts, family["width"], family["decay"]
                )
                factors = [by_start[start] for start in starts]
            window_block = {
                "column": family["column"],
                "start": int(starts[0]),
                "end": int(starts[-1]) + family["width"],
            }
            lineage = {
                "action": "window-merge",
                "window": dict(window_block),
                "windows": list(starts),
                "value_columns": list(family["value_columns"]),
                "drift": max(
                    float(m.lineage.get("drift", 1.0)) for m in members
                ),
                "needs_rebuild": any(
                    bool(m.lineage.get("needs_rebuild"))
                    for m in members
                ),
            }
            event_ts = [
                m.lineage.get("max_event_ts")
                for m in members
                if m.lineage.get("max_event_ts") is not None
            ]
            if event_ts:
                lineage["max_event_ts"] = int(max(event_ts))
            versions = tuple(m.version for m in members)
            view = LiveSample(
                sample=self._topology.merge_slide(members, factors),
                table_name=family["table_name"],
                version="+".join(versions),
                lineage=lineage,
                window=window_block,
                rows=sum(m.rows for m in members),
                versions=versions,
                parts=tuple(
                    zip(names, factors or [1.0] * len(names))
                ),
            )
            with self._lock.write():
                self._adopt_locked(slide, view)
                self._slides[slide] = signature
                self._bump()

    def _adopt_locked(self, name: str, view: LiveSample) -> bool:
        """Serve ``view`` as sample ``name`` when its base table is
        registered, else park it as an orphan; window members also join
        their family registry. Caller holds the write lock.

        Stamping the cache token marks this version's table immutable
        for the per-version group-code cache
        (:mod:`repro.engine.groupcache`): every ``live`` report carries
        a fresh :class:`Table`, so the stamp covers exactly one
        immutable incarnation; the version keeps hot-swapped versions
        apart, and the scope keeps in-process shard workers (same
        name+version, different rows) apart.
        """
        table_name = view.table_name
        serving = bool(table_name and table_name in self._session.tables)
        if serving:
            view.sample.table.cache_token = (
                self._cache_scope, name, view.version,
            )
            self._session.register_sample(
                name, view.sample, table_name, replace=True,
                window=view.window,
            )
            self._live[name] = view
            self._orphans.pop(name, None)
        else:
            self._orphans[name] = table_name or ""
        if view.window is not None and not view.parts:
            # A window member: family-level build parameters (group-by,
            # tracked columns, per-window budget) are recovered from the
            # member itself so a restarted service can keep opening new
            # windows on refresh.
            parsed = parse_window_sample_name(name)
            family = self._families.setdefault(
                parsed[0] if parsed else name,
                {
                    "column": str(view.window["column"]),
                    "width": int(view.window["width"]),
                    "decay": None,
                    "retention": None,
                    "table_name": table_name,
                    "group_by": list(view.sample.allocation.by),
                    "value_columns": tracked_columns_from_lineage(
                        view.lineage, view.sample.allocation.stats
                    ),
                    "budget": int(view.sample.budget),
                    "windows": {},
                },
            )
            family["windows"][int(view.window["start"])] = view.version
        return serving

    def _drop_locked(self, name: str) -> None:
        """Stop serving ``name``. Caller holds the write lock."""
        if self._live.pop(name, None) is not None:
            self._session.drop_sample(name)
        self._orphans.pop(name, None)

    def _drop_slide_locked(self, base: str) -> None:
        """Unregister the family's slide sample (members changed, so
        the merge is stale). Caller holds the write lock."""
        if self._slides.pop(base + SLIDE_SUFFIX, None) is not None:
            self._drop_locked(base + SLIDE_SUFFIX)

    def _bump(self) -> None:
        """Invalidate answers; caller must hold the write lock."""
        self._epoch += 1
        self._cache.clear()
