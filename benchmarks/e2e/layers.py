"""The traced run: where does a workload's time go, layer by layer?

Nothing inside the program is instrumented. The benchmark times calls
into each layer's public functions from outside:

* **The top of the stack by nested differencing.** The same request
  list is answered over HTTP by the served program (its window-median
  p50), by ``AsyncWarehouseService.query`` in this process, by
  ``WarehouseService.query_with_contract`` and, where the median
  request gets that far, by ``AQPSession.query``. Each call includes
  the one below it, so a layer's self time is its total minus the
  total below, and the self times plus ``bench.unattributed_ms`` sum
  to the served p50 exactly.
* **Below the session, kernels stand-alone** on the same tables: parse,
  predicate, factorize, aggregate, and the set-up, storage and ingest
  paths.

A layer the workload's requests never reach reports 0.
"""

from __future__ import annotations

import asyncio
import pathlib
import pickle
import time
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import gate
import metrics as e2e
import stats
import workloads

#: Requests on which the stand-alone kernels are timed.
KERNEL_REQUESTS = 40
REPEATS = 3


def _ms(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return (time.perf_counter() - started) * 1000.0


def _median_ms(call: Callable[[], object], repeats: int = REPEATS) -> float:
    return stats.median([_ms(call) for _ in range(repeats)])


def _each_ms(call: Callable[[str], object], items: Iterable) -> float:
    """Median over ``items`` of the time of ``call(item)``."""
    return stats.median([_ms(lambda: call(item)) for item in items])


class Traced:
    """One traced run of one workload; fills :attr:`out`."""

    def __init__(self, run, names: Sequence[str]) -> None:
        self.run = run
        self.workload = run.workload
        self.scale = run.scale
        self.out: Dict[str, float] = {name: 0.0 for name in names}
        self.problems: List[str] = []
        #: ``(metric, multiplier)`` terms that must add up to the served
        #: p50: the self times along the median request's path.
        self.identity: List[Tuple[str, float]] = []
        self.workdir: pathlib.Path = run.workdir / "layers"
        self.workdir.mkdir()
        # Every level answers what a latency window asks.
        per_level = workloads.window_sizes(self.workload, self.scale)[0]
        sequence = workloads.traffic_sql(
            self.workload, run.seed, 0, self.scale.warmup + 2 * per_level
        )
        self.warm_sql = sequence[: self.scale.warmup]
        self.timed_sql = sequence[self.scale.warmup:][:per_level]
        #: A second list for a level that must share its service with
        #: the level above (the answer cache knows the first by then).
        self.more_sql = sequence[self.scale.warmup + per_level:]
        self.by = workloads.GROUP_BY.split(",")
        self.columns = workloads.VALUE_COLUMNS.split(",")

    def _sampler(self):
        from repro.core.cvopt import CVOptSampler
        from repro.core.spec import GroupByQuerySpec

        return CVOptSampler([GroupByQuerySpec(
            group_by=tuple(self.by), aggregates=tuple(self.columns))])

    def _plain_store(self, base, root: pathlib.Path):
        """A plain store at ``root`` holding the lifetime's sample, built
        the way ``warehouse build`` builds it."""
        from repro.warehouse import SampleMaintainer, SampleStore

        store = SampleStore(str(root), backend=self.workload.backend)
        SampleMaintainer(store).build(
            workloads.SAMPLE, base, group_by=self.by,
            value_columns=self.columns, budget=self.scale.budget,
            table_name=workloads.TABLE, seed=self.result.build_seed,
        )
        return store

    # ------------------------------------------------------------------
    # the served lifetime: the outside of the outside-in
    # ------------------------------------------------------------------
    def served(self) -> float:
        """One served lifetime under the correctness gate; returns the
        p50 the differencing starts from."""
        out, run = self.out, self.run
        results = run.all()
        self.problems += gate.problems(run, results)
        result = results[0]
        series = e2e.window_series(self.workload, results)
        p50 = stats.median(series["query_p50_ms"])
        if result.responses:
            out["serve.http.resp_bytes"] = result.response_bytes / result.responses
            out["aqp.session.plan_cache_hit_ratio"] = (
                result.plan_cached / result.responses
            )
        serving = result.stats_after.get("serving", {})
        out["serve.service.rejected"] = float(
            serving.get("rejected_overload", 0)
            + serving.get("rejected_contract", 0)
        )
        switches = result.ctx_per_query or [
            c.ctx_switches / c.completions
            for c in result.cycles if c.completions
        ]
        out["server.ctx_switches_per_query"] = stats.median(switches)
        out["warehouse.service.answer_cache_hit_ratio"] = e2e.cache_hit_ratio(result)
        out["engine.groupcache.hit_ratio"] = e2e.cache_hit_ratio(
            result, "groupcode_cache"
        )
        out["warehouse.sharded_service.fallbacks"] = float(result.shard_fallbacks)
        mean_error, worst_error = e2e.accuracy(results)
        out["core.cvopt.mean_group_rel_err"] = mean_error
        out["core.cvopt.max_group_rel_err"] = worst_error
        for name, value in e2e.ingest_figures(
            results, self.scale.batch_rows
        ).items():
            out[f"serve.daemon.{name}"] = value
        out["bench.canary_ms"] = stats.median(result.canary_ms)
        out["bench.lifetimes_retried"] = float(run.retried)
        if result.measured_wall_s:
            out["bench.client_cpu_share"] = (
                result.client_cpu_s / result.measured_wall_s
            )
        self.result = result
        return p50

    # ------------------------------------------------------------------
    # the nested levels
    # ------------------------------------------------------------------
    def _async_level(self, service) -> float:
        """Median ms of ``await AsyncWarehouseService.query(sql)``."""
        from repro.serve import AsyncWarehouseService

        async def level() -> List[float]:
            front = AsyncWarehouseService(service)
            try:
                for sql in self.warm_sql:
                    await front.query(sql)
                taken = []
                for sql in self.timed_sql:
                    started = time.perf_counter()
                    await front.query(sql)
                    taken.append((time.perf_counter() - started) * 1000.0)
                return taken
            finally:
                await front.close()

        return stats.median(asyncio.run(level()))

    def _sync_level(self, call: Callable[[str], object],
                    sqls: Sequence[str] = ()) -> float:
        for sql in self.warm_sql:
            call(sql)
        return _each_ms(call, sqls or self.timed_sql)

    def plain_levels(self, base, root: pathlib.Path, served_p50: float) -> None:
        """HTTP > async service > warehouse front > session > kernels on
        an unsharded store."""
        from repro.aqp import AQPSession
        from repro.engine.sql import parse_query
        from repro.warehouse import WarehouseService

        out = self.out
        tables = {workloads.TABLE: base}

        def fresh():
            return WarehouseService(
                str(root), tables, backend=self.workload.backend
            )

        service_total = self._async_level(fresh())
        front = fresh()
        front_total = self._sync_level(front.query_with_contract)
        sample, _, _ = front.snapshot_sample(workloads.SAMPLE)
        session = AQPSession(tables)
        session.register_sample(workloads.SAMPLE, sample, workloads.TABLE)
        session_total = self._sync_level(session.query)
        parsed = [parse_query(sql) for sql in self.timed_sql[:KERNEL_REQUESTS]]
        out["aqp.session.total_ms"] = session_total
        out["aqp.session.route_ms"] = _each_ms(session.route, parsed)
        kernels = self.kernels(sample)

        quiet_p50 = served_p50
        if self.workload.ingest:
            # Under ingest the median read also waits for the writer
            # (the interpreter lock, the swap); the quiet p50 is what
            # the layers below account for, the rest is unattributed.
            quiet_p50 = self.result.quiet_p50_ms
        out["serve.service.total_ms"] = service_total
        out["serve.http.self_ms"] = quiet_p50 - service_total
        out["serve.service.self_ms"] = service_total - front_total
        out["warehouse.service.total_ms"] = front_total
        self.identity = [
            ("serve.http.self_ms", 1.0), ("serve.service.self_ms", 1.0),
            ("warehouse.service.self_ms", 1.0), ("bench.unattributed_ms", 1.0),
        ]
        if self.workload.traffic == "dash":
            # The median request is an answer-cache hit: the front does
            # all of it and the session is never entered.
            out["warehouse.service.self_ms"] = front_total
            out["aqp.session.unattributed_ms"] = 0.0
            out["bench.unattributed_ms"] = served_p50 - quiet_p50
        else:
            out["warehouse.service.self_ms"] = front_total - session_total
            out["aqp.session.unattributed_ms"] = session_total - kernels
            out["bench.unattributed_ms"] = out["aqp.session.unattributed_ms"]
            self.identity += [
                ("engine.sql.parse_ms", 1.0), ("engine.expr.filter_ms", 1.0),
                ("engine.groupby.aggregate_ms", 1.0),
            ]

    def kernels(self, sample) -> float:
        """Stand-alone engine kernels on the served sample's table;
        returns parse + filter + aggregate, the part of a session call
        they explain."""
        from repro.core.sample import WEIGHT_COLUMN
        from repro.engine.expr import (
            AggCall, Star, collect_agg_calls, collect_column_refs, evaluate,
            evaluate_predicate,
        )
        from repro.engine.groupby import compute_group_keys, group_by_aggregate
        from repro.engine.groupcache import default_group_code_cache
        from repro.engine.sql import parse_query, plan_query

        out, table = self.out, sample.table
        sqls = self.timed_sql[:KERNEL_REQUESTS]
        out["engine.sql.parse_ms"] = _each_ms(parse_query, sqls)
        parsed = [parse_query(sql) for sql in sqls]
        shapes = parsed[: max(len(workloads.ADHOC_SHAPES), len(workloads.DASHBOARD))]
        out["engine.sql.plan_ms"] = _each_ms(plan_query, shapes)

        filter_ms, aggregate_ms = [], []
        for query in parsed:
            calls: List[AggCall] = []
            for item in query.items:
                calls.extend(collect_agg_calls(item.expr))
            # The session pushes the projection down before it filters;
            # so does this, or the filter would copy every column.
            exprs = [query.where, *query.group_by, *(c.arg for c in calls)]
            needed = {WEIGHT_COLUMN} | {
                ref.name for expr in exprs if expr is not None
                for ref in collect_column_refs(expr)
            }
            rows = projected = table.select(
                [name for name in table.column_names if name in needed])
            if query.where is not None:
                started = time.perf_counter()
                rows = projected.filter(
                    evaluate_predicate(query.where, projected))
                filter_ms.append((time.perf_counter() - started) * 1000.0)
            by = [expr.name for expr in query.group_by]
            started = time.perf_counter()
            weights = rows.column(WEIGHT_COLUMN).data
            group_by_aggregate(
                rows, by,
                [
                    (
                        f"agg{i}", call.func,
                        None if call.arg is None or isinstance(call.arg, Star)
                        else evaluate(call.arg, rows),
                    )
                    for i, call in enumerate(calls)
                ],
                weights,
            )
            aggregate_ms.append((time.perf_counter() - started) * 1000.0)
        out["engine.expr.filter_ms"] = stats.median(filter_ms) if filter_ms else 0.0
        out["engine.groupby.aggregate_ms"] = stats.median(aggregate_ms)

        def factorize() -> None:
            default_group_code_cache().invalidate()
            compute_group_keys(table, self.by)

        out["engine.groupby.factorize_ms"] = _median_ms(factorize, 5)
        return (out["engine.sql.parse_ms"] + out["engine.expr.filter_ms"]
                + out["engine.groupby.aggregate_ms"])

    def sharded_levels(self, base, served_p50: float) -> None:
        """HTTP > async service > scatter-gather front > pipe RPC >
        partials on the shard workers."""
        from repro.engine.sql import parse_query
        from repro.warehouse import ShardedSampleStore, ShardedWarehouseService
        from repro.warehouse.partials import (
            compute_partials, decompose, finalize_partials, merge_partials,
        )
        from repro.warehouse.sharding import split_sample

        out, shards = self.out, self.workload.shards
        tables = {workloads.TABLE: base}
        root = self.workdir / "sharded"
        with ShardedWarehouseService(
            str(root), tables, shards=shards,
            backend=self.workload.backend, workers="inprocess",
        ) as builder:
            builder.build(
                workloads.SAMPLE, workloads.TABLE, group_by=self.by,
                value_columns=self.columns, budget=self.scale.budget,
                seed=self.result.build_seed,
            )
        whole = self._sampler().sample(
            base, self.scale.budget, seed=self.result.build_seed)
        out["warehouse.sharding.split_ms"] = _median_ms(
            lambda: split_sample(whole, shards))
        pieces = [s.sample for s in ShardedSampleStore(str(root)).get_shards(
            workloads.SAMPLE)]
        rows = [piece.num_rows for piece in pieces]
        out["warehouse.sharding.skew"] = max(rows) / (sum(rows) / len(rows))

        sqls = self.timed_sql[:KERNEL_REQUESTS]
        with ShardedWarehouseService(
            str(root), tables, backend=self.workload.backend,
            workers="process",
        ) as front:
            service_total = self._async_level(front)
            front_total = self._sync_level(
                front.query_with_contract, self.more_sql)
            client = front.clients[0]
            out["serve.worker.ping_ms"] = stats.median(
                [_ms(lambda: client.request("ping")) for _ in range(50)])
            slowest, mean, payload = [], [], []
            for sql in sqls:
                taken = []
                for client in front.clients:
                    started = time.perf_counter()
                    response = client.request(
                        "partials", sql=sql, name=workloads.SAMPLE,
                        trace_id=None,
                    )
                    taken.append((time.perf_counter() - started) * 1000.0)
                    payload.append(len(pickle.dumps(response)))
                slowest.append(max(taken))
                mean.append(sum(taken) / len(taken))
        decomposed = [decompose(parse_query(sql)) for sql in sqls]
        out["warehouse.partials.decompose_ms"] = _each_ms(
            lambda sql: decompose(parse_query(sql)), sqls
        ) - _each_ms(parse_query, sqls)
        compute_ms, merge_ms = [], []
        for dq in decomposed:
            parts = []
            for piece in pieces:
                started = time.perf_counter()
                parts.append(compute_partials(piece, dq))
                compute_ms.append((time.perf_counter() - started) * 1000.0)
            merge_ms.append(_ms(lambda: finalize_partials(
                dq, merge_partials(parts, len(dq.agg_calls)))))
        out["serve.worker.partials_max_ms"] = stats.median(slowest)
        out["serve.worker.partials_mean_ms"] = stats.median(mean)
        out["serve.worker.payload_bytes"] = sum(payload) / len(payload)
        out["warehouse.partials.compute_ms"] = stats.median(compute_ms)
        out["warehouse.partials.merge_ms"] = stats.median(merge_ms)
        out["serve.worker.pipe_ms"] = (
            out["serve.worker.partials_mean_ms"]
            - out["warehouse.partials.compute_ms"]
        )
        out["serve.service.total_ms"] = service_total
        out["serve.http.self_ms"] = served_p50 - service_total
        out["serve.service.self_ms"] = service_total - front_total
        out["warehouse.sharded_service.total_ms"] = front_total
        # The workers share the server's one core, so a query waits for
        # the sum of its parts, not for the slowest.
        out["warehouse.sharded_service.self_ms"] = (
            front_total - shards * out["serve.worker.partials_mean_ms"]
            - out["warehouse.partials.merge_ms"]
        )
        out["engine.sql.parse_ms"] = _each_ms(parse_query, sqls)
        # Every level below the front is named, so nothing is left over.
        out["bench.unattributed_ms"] = 0.0
        self.identity = [
            ("serve.http.self_ms", 1.0), ("serve.service.self_ms", 1.0),
            ("warehouse.sharded_service.self_ms", 1.0),
            ("serve.worker.partials_mean_ms", float(shards)),
            ("warehouse.partials.merge_ms", 1.0),
            ("bench.unattributed_ms", 1.0),
        ]

    # ------------------------------------------------------------------
    # set-up, storage and ingest paths
    # ------------------------------------------------------------------
    def setup_path(self, base) -> pathlib.Path:
        """What ``warehouse build`` and a cold start are made of; leaves
        a plain store behind and returns its root."""
        from repro.core.allocation import allocate_for_columns
        from repro.engine.sql import execute_sql
        from repro.engine.statistics import collect_strata_statistics
        from repro.engine.table import Table
        from repro.warehouse import SampleStore
        from repro.warehouse.backends import resolve_backend
        from repro.warehouse.coordination import (
            FileLock, ManifestLog, ManifestRecord,
        )

        out, scale = self.out, self.scale
        fixture = self.run.fixture
        out["engine.table.load_ms"] = _median_ms(lambda: Table.load(fixture.base))
        out["engine.statistics.collect_ms"] = _median_ms(
            lambda: collect_strata_statistics(base, self.by, self.columns))
        statistics = collect_strata_statistics(base, self.by, self.columns)
        out["core.allocation.allocate_ms"] = _median_ms(
            lambda: allocate_for_columns(statistics, self.columns, scale.budget), 5)
        sampler = self._sampler()
        out["core.cvopt.sample_ms"] = _median_ms(
            lambda: sampler.sample(base, scale.budget,
                                   seed=self.result.build_seed))

        root = self.workdir / "plain"
        sample = self._plain_store(base, root).get(workloads.SAMPLE).sample
        scratch = SampleStore(str(self.workdir / "put"),
                              backend=self.workload.backend)
        out["warehouse.store.put_ms"] = _median_ms(
            lambda: scratch.put("p", sample, table_name=workloads.TABLE))

        projection = sorted({
            "country", "parameter", "value", "latitude", "__weight__",
        })
        spy = _SpyBackend(resolve_backend(self.workload.backend))

        def cold_get() -> None:
            stored = SampleStore(str(root), backend=spy).get(
                workloads.SAMPLE, columns=projection)
            for name in projection:
                stored.sample.table.column(name).data.sum()

        out["warehouse.store.get_ms"] = _median_ms(cold_get, 5)
        out["warehouse.backends.columns_read"] = stats.median(spy.columns_read)

        commit_dir = self.workdir / "commit"
        commit_dir.mkdir()
        log = ManifestLog(commit_dir / "manifest.log")

        def commit() -> None:
            with FileLock(commit_dir / ".lock"):
                log.append(ManifestRecord(
                    op="put", name="c", version="v000001", ts=time.time()))

        out["warehouse.coordination.commit_ms"] = _median_ms(commit, 20)

        exact_table = {workloads.TABLE: base}
        out["engine.sql.exact_execute_ms"] = _each_ms(
            lambda sql: execute_sql(sql, exact_table),
            [workloads.exact_sql(self.run.seed, i) for i in range(REPEATS)],
        )
        return root

    def ingest_path(self, base) -> None:
        """What one batch cycle of ``lifecycle`` is made of."""
        from repro.core.streaming import StreamingCVOptSampler
        from repro.engine.table import Table
        from repro.warehouse import SampleMaintainer, WarehouseService

        out, scale = self.out, self.scale
        paths = self.run.fixture.batches[:REPEATS]
        out["warehouse.maintenance.batch_load_ms"] = _each_ms(Table.load, paths)
        batches = [Table.load(path) for path in paths]

        maintainer = SampleMaintainer(
            self._plain_store(base, self.workdir / "maintain"))
        refresh_ms = _each_ms(
            lambda batch: maintainer.refresh(workloads.SAMPLE, batch), batches)
        out["warehouse.maintenance.refresh_ms"] = refresh_ms

        self._plain_store(base, self.workdir / "swap")
        service = WarehouseService(
            str(self.workdir / "swap"), {workloads.TABLE: base},
            backend=self.workload.backend,
        )
        service_ms = _each_ms(
            lambda batch: service.refresh(workloads.SAMPLE, batch), batches)
        out["warehouse.service.swap_ms"] = service_ms - refresh_ms

        sample = self._plain_store(
            base, self.workdir / "resume").get(workloads.SAMPLE).sample

        def resume(batch) -> None:
            sampler = StreamingCVOptSampler.resume(sample, self.columns, seed=0)
            sampler.observe_table(batch)
            sampler.finalize()

        out["core.streaming.resume_rows_per_s"] = (
            scale.batch_rows / (_each_ms(resume, batches) / 1000.0)
        )
        cycle_ms = stats.median(
            [c.seconds for c in self.result.cycles]) * 1000.0
        out["serve.daemon.pickup_ms"] = (
            cycle_ms - service_ms
            - out["warehouse.maintenance.batch_load_ms"]
        )


class _SpyBackend:
    """A storage backend that counts the columns each read returns."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.name = inner.name
        self.columns_read: List[int] = []

    def put_rows(self, version_dir, table):
        return self._inner.put_rows(version_dir, table)

    def get_rows(self, version_dir, storage, columns=None):
        table = self._inner.get_rows(version_dir, storage, columns)
        self.columns_read.append(len(table.column_names))
        return table

    def list(self, version_dir):
        return self._inner.list(version_dir)

    def delete(self, version_dir):
        return self._inner.delete(version_dir)


def measure(run, names: Sequence[str]) -> Tuple[Dict[str, float], List[str]]:
    """The per-layer metrics of ``run``'s workload and every reason not
    to trust them."""
    from repro.engine.table import Table

    traced = Traced(run, names)
    served_p50 = traced.served()
    base = Table.load(run.fixture.base)
    root = traced.setup_path(base)
    if run.workload.shards > 1:
        traced.sharded_levels(base, served_p50)
    else:
        traced.plain_levels(base, root, served_p50)
    if run.workload.ingest:
        traced.ingest_path(base)
    unknown = sorted(set(traced.out) - set(names))
    if unknown:
        traced.problems.append(f"undeclared per-layer metrics {unknown}")
    total = sum(traced.out[name] * times for name, times in traced.identity)
    print(f"served query_p50_ms {served_p50:.6g} ms = " + " + ".join(
        (f"{times:g} x " if times != 1.0 else "") + name
        for name, times in traced.identity))
    if abs(total - served_p50) > 1e-9 * max(1.0, served_p50):
        traced.problems.append(
            f"self times sum to {total!r}, not to the served p50 {served_p50!r}")
    return traced.out, traced.problems
