"""Scatter-gather topology: sample rows live on N shard workers.

The second implementation of the seam in
:mod:`repro.warehouse.topology`. Samples live in N ``shard-NN/``
sub-stores, each owned by a shard worker (:mod:`repro.serve.worker`);
the front keeps the real base tables and registers *metadata
stand-ins* with its routing session — the merged shard allocations
(exact: strata are never split across shards, so keys, populations,
sizes and per-column moments concatenate verbatim) under an empty row
table. Sample selection, CV prediction and contract math therefore run
the session's own code on the same numbers the local topology sees.

* **Row work scatters.** A decomposable aggregate query fans out to
  every shard worker concurrently; each returns per-group
  ``(count, total, total_sq)`` moment blocks over its slice, the front
  adds them (:func:`~repro.warehouse.partials.merge_partials`) and
  finalizes one answer table — numerically the local answer up to float
  summation order. A slide fans out once per covered window member
  (partials are additive across shards *and* windows) with each
  member's moments scaled by its decay factor. Non-decomposable queries
  (MEDIAN, HAVING, joins, ...) and worker failures execute exactly at
  the front.
* **Maintenance parallelizes per shard.** A refresh batch is
  partitioned by stratum hash and folded into every shard at once, each
  worker hot-swapping its own new version; rebuild escalation is
  decided centrally (a shard only sees its strata) and pushed back down
  as freshly split pieces.
* **Column projection rides the scatter.** Workers adopt their
  sub-store samples lazily under the ``mmap`` backend, and
  :func:`~repro.warehouse.partials.compute_partials` only touches the
  columns the decomposed query references — so a worker's
  resident set is the hot columns of its traffic, and N workers on one
  host share one page-cache copy.
"""

from __future__ import annotations

import contextvars
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence

from ..aqp.session import AQPResult, RouteDecision
from ..core.sample import StratifiedSample
from ..engine.sql.errors import QueryExecutionError
from ..engine.sql.parser import parse_query
from ..engine.table import Table
from ..obs import current_trace_id, default_registry, default_tracer
from ..serve.worker import (
    InProcessShardClient,
    ProcessShardClient,
    ShardWorkerError,
)
from .maintenance import (
    RefreshReport,
    SampleMaintainer,
    staleness_from_lineage,
    tracked_columns_from_lineage,
)
from .partials import decompose, finalize_partials, merge_partials
from .sharding import (
    SHARD_SCHEME,
    ShardedSampleStore,
    join_versions,
    merge_shard_allocations,
    partition_table,
)
from .topology import LiveSample
from .windows import WINDOWED_METHOD, merge_window_allocations

__all__ = ["ScatterGatherTopology"]

_TRACER = default_tracer()
_SHARD_RPC = default_registry().histogram(
    "repro_shard_rpc_seconds",
    "Per-shard worker RPC latency in seconds",
    ["op", "shard"],
)
_SHARD_FALLBACK = default_registry().counter(
    "repro_shard_fallback_total",
    "Sharded queries that fell back to exact execution, by reason",
    ["reason"],
)


class ScatterGatherTopology:
    """N shard sub-stores behind N shard workers.

    ``store`` is a :class:`~repro.warehouse.sharding.ShardedSampleStore`
    or its root path (``shards`` is required when creating a new one).
    ``workers="process"`` spawns one OS process per shard (the
    deployment topology); ``"inprocess"`` runs the same protocol
    without process boundaries (tests, single-process setups, and any
    backend — like the memory backend — whose blobs other processes
    cannot read).
    """

    def __init__(
        self,
        store,
        shards: Optional[int] = None,
        backend=None,
        cv_degradation_threshold: float = 1.5,
        keep_versions: int = 4,
        workers: str = "process",
    ) -> None:
        if workers not in ("process", "inprocess"):
            raise ValueError("workers must be 'process' or 'inprocess'")
        self.store = (
            store
            if isinstance(store, ShardedSampleStore)
            else ShardedSampleStore(store, shards=shards, backend=backend)
        )
        self.maintainer = SampleMaintainer(
            self.store,
            cv_degradation_threshold=cv_degradation_threshold,
            keep_versions=keep_versions,
        )
        self.num_shards = self.store.num_shards
        self.summary_extra = {"shards": self.num_shards}
        self._pool = ThreadPoolExecutor(
            max_workers=max(self.num_shards, 1),
            thread_name_prefix="shard-fanout",
        )
        if workers == "process" and not (
            isinstance(backend, str) or backend is None
        ):
            backend = getattr(backend, "name", None)
        client_type = (
            ProcessShardClient if workers == "process"
            else InProcessShardClient
        )
        self.clients = [
            client_type(
                self.store.root, i, backend=backend,
                cv_degradation_threshold=cv_degradation_threshold,
                keep_versions=keep_versions,
            )
            for i in range(self.num_shards)
        ]

    # ------------------------------------------------------------------
    # scatter plumbing
    # ------------------------------------------------------------------
    def _scatter(self, op: str, payload=None, only=None) -> List[Dict]:
        """Send ``op`` to every shard concurrently (or just the shard
        indices in ``only``); raises the first shard failure.
        ``payload`` is one kwargs dict for everyone or a list with one
        per shard. Responses align with shard index (``None`` for
        shards left out).

        Each request is submitted through a fresh
        ``contextvars.copy_context()`` because ``ThreadPoolExecutor``
        does not propagate context — without the copy, per-shard RPC
        spans opened in pool threads would detach from the request's
        trace.
        """
        if not isinstance(payload, list):
            payload = [payload or {}] * self.num_shards
        futures = {
            i: self._pool.submit(
                contextvars.copy_context().run,
                self._timed_request,
                self.clients[i],
                op,
                payload[i],
            )
            for i in (range(self.num_shards) if only is None else only)
        }
        return [
            futures[i].result() if i in futures else None
            for i in range(self.num_shards)
        ]

    def _timed_request(self, client, op: str, payload: Dict) -> Dict:
        """One shard RPC with a latency histogram sample and (when a
        trace is active in this context) a ``shard.rpc`` span."""
        t0 = time.perf_counter()
        try:
            with _TRACER.span("shard.rpc", op=op, shard=client.shard_index):
                return client.request(op, **payload)
        finally:
            _SHARD_RPC.observe(
                time.perf_counter() - t0,
                op=op, shard=str(client.shard_index),
            )

    # ------------------------------------------------------------------
    # the seam
    # ------------------------------------------------------------------
    def live(
        self, names: Optional[Sequence[str]] = None, reload: bool = False
    ) -> Dict[str, LiveSample]:
        """Merged per-sample views from the shards' ``sample_meta``:
        disjoint allocations concatenated, lineages merged. Metadata
        only — no sample rows cross the wire."""
        if names is not None and not names:
            return {}
        if reload:
            self._scatter("reload", {"names": list(names)})
        metas = self._scatter(
            "sample_meta", {"names": list(names) if names else None}
        )
        found: Dict[str, None] = {}
        for meta in metas:
            for name in meta["samples"]:
                found.setdefault(name, None)
        out = {}
        for name in names if names is not None else found:
            pieces = [meta["samples"].get(name) for meta in metas]
            if any(p is None for p in pieces):
                # A sample not live on every shard (mid-publish) is not
                # routable: merging a subset would under-count.
                if names is not None:
                    raise KeyError(
                        f"sample {name!r} is not live on every shard"
                    )
                continue
            versions = tuple(p["version"] for p in pieces)
            out[name] = LiveSample(
                sample=StratifiedSample(
                    table=Table({}),
                    allocation=merge_shard_allocations(
                        [p["allocation"] for p in pieces]
                    ),
                    method=pieces[0]["method"],
                    source_rows=sum(p["source_rows"] for p in pieces),
                    budget=sum(p["budget"] for p in pieces),
                ),
                table_name=next(
                    (
                        meta["tables"][name]
                        for meta in metas
                        if meta["tables"].get(name)
                    ),
                    None,
                ),
                version=join_versions(versions),
                lineage=_merge_lineages([p["lineage"] for p in pieces]),
                window=pieces[0]["window"],
                rows=sum(p["rows"] for p in pieces),
                versions=versions,
            )
        return out

    def ingest(
        self, name, batch, full_table=None, seed=0, columns=None
    ) -> RefreshReport:
        """Fold ``batch`` into every shard in parallel.

        The batch is partitioned by the stratum hash of each row's
        group key, so every worker's streaming maintainer sees exactly
        the rows the local maintainer would have folded into its
        strata; each shard hot-swaps its new version independently.
        When the merged drift crosses the escalation threshold, the
        front — which holds the full base table no single shard has —
        runs the two-pass rebuild centrally and pushes freshly split
        pieces back down.
        """
        view = self.live([name])[name]
        allocation = view.sample.allocation
        pieces = partition_table(batch, allocation.by, self.num_shards)
        responses = self._scatter(
            "refresh",
            [
                {
                    "name": name,
                    "batch": piece,
                    "seed": seed,
                    "columns": list(columns) if columns else None,
                }
                for piece in pieces
            ],
            only=[i for i, p in enumerate(pieces) if p.num_rows],
        )
        report = _merge_reports(
            name, [r and r["report"] for r in responses], view
        )
        if not (report.needs_rebuild and full_table is not None):
            return report
        value_columns = tracked_columns_from_lineage(
            view.lineage, allocation.stats
        )
        built = self.maintainer.build(
            name,
            full_table,
            group_by=allocation.by,
            value_columns=value_columns,
            budget=view.sample.budget,
            table_name=view.table_name,
            seed=seed,
            action="rebuild",
        )
        self._scatter("reload", {"names": [name]})
        return RefreshReport(
            name=name,
            version=built.version,
            action="rebuild",
            rows_ingested=0,
            source_rows=built.source_rows,
            sample_rows=built.rows,
            new_strata=0,
            staleness=0.0,
            drift=1.0,
            needs_rebuild=False,
            columns=value_columns,
        )

    def query(self, session, live, sql: str, mode: str, max_cv):
        """Scatter-gather when the router picks a sample and the query
        decomposes; exactly at the front otherwise."""
        if mode not in ("auto", "approx", "exact"):
            raise ValueError("mode must be 'auto', 'approx' or 'exact'")
        if mode == "exact":
            return session.query(sql, mode="exact"), None
        start = time.perf_counter()

        def exact(route: RouteDecision):
            result = session.query(sql, mode="exact")
            return (
                AQPResult(
                    table=result.table,
                    route=route,
                    plan_cached=result.plan_cached,
                    elapsed_seconds=time.perf_counter() - start,
                ),
                None,
            )

        with _TRACER.span("aqp.parse"):
            parsed = parse_query(sql)
            dq = decompose(parsed)
        if dq is None:
            # MEDIAN / HAVING / joins / subqueries: no per-shard
            # partials exist. The front has no sample rows either, so
            # approximation is off the table — unlike the local
            # topology, which can still run such a query over its
            # sample.
            if mode == "approx":
                raise QueryExecutionError(
                    "cannot answer approximately on a sharded warehouse: "
                    "query does not decompose into per-shard partials"
                )
            _SHARD_FALLBACK.inc(reason="non_decomposable")
            return exact(RouteDecision(
                None, None, None,
                "query does not decompose into per-shard partials; "
                "executing exactly",
            ))
        with _TRACER.span("aqp.route"):
            route = session.route(parsed, mode, max_cv)
        _TRACER.annotate(route=route.reason, sample=route.sample_name)
        if not route.approximate:
            return exact(route)
        trace_id = current_trace_id()
        # A slide stand-in has no rows anywhere; fan out once per
        # covered window member instead.
        parts = live[route.sample_name].parts or (
            (route.sample_name, 1.0),
        )
        _TRACER.annotate(shard_fanout=self.num_shards * len(parts))
        try:
            responses = [
                self._scatter(
                    "partials",
                    {"sql": sql, "name": member, "trace_id": trace_id},
                )
                for member, _ in parts
            ]
        except ShardWorkerError as exc:
            if mode == "approx":
                raise
            _SHARD_FALLBACK.inc(reason="worker_error")
            return exact(RouteDecision(
                None, None, None,
                f"shard fan-out failed ({exc}); executing exactly",
            ))
        if trace_id is not None:
            _TRACER.graft([
                span
                for member in responses
                for r in member
                for span in r.get("spans", [])
            ])
        with _TRACER.span("shard.merge", shards=self.num_shards):
            partials = []
            for (_, factor), member in zip(parts, responses):
                for r in member:
                    partials.append(_decayed(r["partials"], factor))
            table = finalize_partials(
                dq, merge_partials(partials, len(dq.agg_calls))
            )
        # The workers say which version their rows came from; a worker
        # may have hot-swapped since the front last looked.
        version = "+".join(
            join_versions([r["partials"].sample_version for r in member])
            for member in responses
        )
        return (
            AQPResult(
                table=table,
                route=route,
                plan_cached=False,
                elapsed_seconds=time.perf_counter() - start,
            ),
            version,
        )

    def merge_slide(
        self, members: Sequence[LiveSample], factors: Optional[List[float]]
    ) -> StratifiedSample:
        """Stand-in for a slide: the members' merged-across-shards
        allocations merged again across windows."""
        return StratifiedSample(
            table=Table({}),
            allocation=merge_window_allocations(
                [m.sample.allocation for m in members], factors
            ),
            method=WINDOWED_METHOD,
            source_rows=sum(m.sample.source_rows for m in members),
            budget=sum(m.sample.budget for m in members),
        )

    def delete(self, name: str) -> None:
        self.store.delete(name)
        self._scatter("drop", {"name": name})

    def stats(self, live: Dict[str, LiveSample], session) -> Dict:
        """Merged per-sample accounting plus a per-shard block (each
        entry is that worker's full ``stats()`` snapshot — store
        accounting, caches, served versions)."""
        shard_stats = []
        for client in self.clients:
            try:
                shard_stats.append(client.request("stats")["stats"])
            except ShardWorkerError as exc:
                shard_stats.append(
                    {"shard": client.shard_index, "error": str(exc)}
                )
        return {
            "store": {
                "root": str(self.store.root),
                "shards": {
                    "count": self.num_shards,
                    "scheme": SHARD_SCHEME,
                },
            },
            "samples": {
                name: {
                    "version": view.version,
                    "versions": list(view.versions),
                    "rows": view.rows,
                    "strata": view.sample.allocation.num_strata,
                    "by": list(view.sample.allocation.by),
                    "staleness": staleness_from_lineage(view.lineage),
                    "needs_rebuild": bool(
                        view.lineage.get("needs_rebuild", False)
                    ),
                }
                for name, view in live.items()
            },
            "shards": shard_stats,
        }

    def health(self) -> Dict:
        return {
            "shards": {
                "count": self.num_shards,
                "alive": sum(1 for c in self.clients if c.alive),
            }
        }

    def close(self) -> None:
        """Shut down every worker and the fan-out pool."""
        for client in self.clients:
            try:
                client.close()
            except Exception:
                pass
        self._pool.shutdown(wait=False)


# ----------------------------------------------------------------------
# merge helpers
# ----------------------------------------------------------------------
def _decayed(partials, factor: float):
    """Scale one window member's weighted moments by its decay factor
    — what scaling the member's HT row weights does on the local
    topology. Extrema and raw support are weight-free."""
    if factor != 1.0:
        partials.wcount = partials.wcount * factor
        for block in partials.blocks:
            if block is not None:
                block["total"] = block["total"] * factor
                block["total_sq"] = block["total_sq"] * factor
    return partials


def _merge_lineages(lineages: Sequence[Dict]) -> Dict:
    """Whole-warehouse lineage from per-shard lineages.

    Counters add (each shard ingested its disjoint rows of every
    batch), drift takes the worst shard (the contract must not promise
    better than the worst slice), and ``needs_rebuild`` is sticky if
    any shard raised it."""
    merged: Dict = dict(lineages[0]) if lineages else {}
    rows_ingested = sum(
        int(li.get("rows_ingested", 0)) for li in lineages
    )
    base_rows = sum(int(li.get("base_rows", 0)) for li in lineages)
    merged["rows_ingested"] = rows_ingested
    merged["base_rows"] = base_rows
    merged["staleness"] = (
        rows_ingested / base_rows if base_rows else 0.0
    )
    merged["drift"] = max(
        (float(li.get("drift", 1.0)) for li in lineages), default=1.0
    )
    drift_by_column: Dict[str, float] = {}
    for li in lineages:
        for column, drift in (li.get("drift_by_column") or {}).items():
            drift_by_column[column] = max(
                drift_by_column.get(column, 1.0), float(drift)
            )
    merged["drift_by_column"] = drift_by_column
    merged["needs_rebuild"] = any(
        bool(li.get("needs_rebuild", False)) for li in lineages
    )
    merged["refresh_count"] = max(
        (int(li.get("refresh_count", 0)) for li in lineages), default=0
    )
    # Windowed members: the newest covered event is the max over the
    # merged parts (shards see disjoint slices of each batch).
    event_ts = [
        int(li["max_event_ts"])
        for li in lineages
        if li.get("max_event_ts") is not None
    ]
    if event_ts:
        merged["max_event_ts"] = max(event_ts)
    columns: Dict[str, None] = {}
    for li in lineages:
        for column in li.get("value_columns") or []:
            columns.setdefault(column, None)
    if columns:
        merged["value_columns"] = list(columns)
    return merged


def _merge_reports(
    name: str, reports: Sequence[Optional[RefreshReport]], view: LiveSample
) -> RefreshReport:
    """One warehouse-level report from the per-shard refresh reports
    (``None`` for shards whose batch slice was empty); ``view`` is the
    sample as it was before the refresh."""
    done = [r for r in reports if r is not None]
    versions = [
        r.version if r is not None else v
        for r, v in zip(reports, view.versions)
    ]
    rows_ingested = sum(r.rows_ingested for r in done)
    columns: Dict[str, None] = {}
    for r in done:
        for c in r.columns:
            columns.setdefault(c, None)
    lineage = view.lineage
    prior_ingested = int(lineage.get("rows_ingested", 0))
    base_rows = int(lineage.get("base_rows", 0))
    return RefreshReport(
        name=name,
        version=join_versions(versions),
        action="incremental",
        rows_ingested=rows_ingested,
        # Shards with an empty slice keep their prior population, so
        # the covered total is simply prior + newly ingested rows.
        source_rows=view.sample.source_rows + rows_ingested,
        sample_rows=sum(r.sample_rows for r in done),
        new_strata=sum(r.new_strata for r in done),
        staleness=(
            (prior_ingested + rows_ingested) / base_rows
            if base_rows
            else float("inf")
        ),
        drift=max((r.drift for r in done), default=1.0),
        needs_rebuild=any(r.needs_rebuild for r in done),
        columns=list(columns),
        drift_by_column={
            c: max(
                (r.drift_by_column.get(c, 1.0) for r in done),
                default=1.0,
            )
            for c in columns
        },
    )
