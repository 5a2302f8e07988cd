"""Observability end to end: /metrics exposition, /debug/traces,
the structured query log, cross-process trace propagation through real
shard workers, and the /stats cache-counter race regression."""

import asyncio
import json
import os
import threading

import pytest

from repro.obs import QueryLog, default_registry, default_tracer
from repro.serve import (
    AsyncWarehouseService,
    MaintenanceDaemon,
    WarehouseHTTPServer,
    request,
)
from repro.warehouse import ShardedWarehouseService
from repro.warehouse.service import LRUCache

# CI legs re-run this suite per storage backend (see conftest.py)
_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")

SQL = "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"


async def _started(sync_service, **server_kwargs):
    service = AsyncWarehouseService(sync_service)
    server = WarehouseHTTPServer(service, port=0, **server_kwargs)
    await server.start()
    return server


def _counter_value(name, **labels):
    metric = default_registry().get(name)
    return metric.value(**labels) if metric is not None else 0.0


class TestMetricsEndpoint:
    def test_metrics_scrape_is_prometheus_text(self, warehouse):
        async def main():
            server = await _started(warehouse)
            try:
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": SQL},
                )
                assert status == 200
                status, text = await request(
                    "127.0.0.1", server.port, "GET", "/metrics"
                )
                assert status == 200
                assert isinstance(text, str)
                return text
            finally:
                await server.stop()

        text = asyncio.run(main())
        # core series, populated by the query above
        for series in (
            "# TYPE repro_queries_total counter",
            "# TYPE repro_query_seconds histogram",
            'repro_answer_cache_total{result="miss"}',
            "repro_plan_cache_total",
            'repro_http_requests_total{path="/query",status="200"}',
            "repro_query_seconds_bucket",
            "repro_serve_inflight",
        ):
            assert series in text, series

    def test_query_counters_advance_per_request(self, warehouse):
        async def main():
            server = await _started(warehouse)
            try:
                before = _counter_value("repro_queries_total",
                                        route="sample")
                cached_before = _counter_value("repro_queries_total",
                                               route="cached")
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": SQL},
                )
                assert status == 200
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": SQL},
                )
                assert status == 200
                assert _counter_value(
                    "repro_queries_total", route="sample"
                ) == before + 1
                assert _counter_value(
                    "repro_queries_total", route="cached"
                ) == cached_before + 1
            finally:
                await server.stop()

        asyncio.run(main())


class TestTracesEndpoint:
    def test_recent_traces_have_span_tree(self, warehouse):
        async def main():
            server = await _started(warehouse)
            try:
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": SQL},
                )
                assert status == 200
                status, payload = await request(
                    "127.0.0.1", server.port, "GET",
                    "/debug/traces?limit=1",
                )
                assert status == 200
                (trace,) = payload["traces"]
                return trace
            finally:
                await server.stop()

        trace = asyncio.run(main())
        names = [s["name"] for s in trace["spans"]]
        assert names[0] == "http.query"
        for expected in ("aqp.parse", "aqp.execute", "warehouse.contract"):
            assert expected in names, names
        assert {s["trace_id"] for s in trace["spans"]} \
            == {trace["trace_id"]}
        # the session annotated the root with its routing decision
        assert trace["tags"]["answer_cache"] in ("hit", "miss")
        assert "shape_key" in trace["tags"]

    def test_daemon_refresh_trace_says_where_the_time_went(
        self, split_warehouse, tmp_path
    ):
        sync_service, batch = split_warehouse
        watch = tmp_path / "incoming"
        watch.mkdir()
        batch.save(watch / "s__day1.npz")

        async def main():
            service = AsyncWarehouseService(sync_service)
            server = await WarehouseHTTPServer(service, port=0).start()
            try:
                daemon = MaintenanceDaemon(
                    service, watch, require_stable=False
                )
                (outcome,) = await daemon.poll()
                assert outcome.ok, outcome
                _, payload = await request(
                    "127.0.0.1", server.port, "GET",
                    "/debug/traces?limit=1",
                )
                return payload["traces"][0]
            finally:
                await server.stop()

        trace = asyncio.run(main())
        spans = {s["name"]: s for s in trace["spans"]}
        assert trace["spans"][0]["name"] == "daemon.refresh"
        assert {"maintenance.get", "maintenance.ingest", "maintenance.put"} \
            <= set(spans), list(spans)
        tags = spans["maintenance.ingest"]["tags"]
        assert tags["batch_rows"] == batch.num_rows
        assert tags["sample_rows"] > 0 and tags["strata"] > 0
        assert tags["new_strata"] >= 0 and tags["replaced"] >= 0

    def test_filtered_query_shows_where_the_engine_time_went(
        self, warehouse
    ):
        sql = (
            "SELECT country, AVG(value) a FROM OpenAQ "
            "WHERE value > {} GROUP BY country"
        )

        async def main():
            server = await _started(warehouse)
            try:
                for literal in (1.0, 2.0):  # cold codes, then cached
                    status, _ = await request(
                        "127.0.0.1", server.port, "POST", "/query",
                        {"sql": sql.format(literal)},
                    )
                    assert status == 200
                _, payload = await request(
                    "127.0.0.1", server.port, "GET",
                    "/debug/traces?limit=1",
                )
                return payload["traces"][0]
            finally:
                await server.stop()

        spans = {s["name"]: s for s in asyncio.run(main())["spans"]}
        assert "engine.filter" in spans
        assert "engine.factorize" not in spans  # second query of the keys
        tags = spans["engine.aggregate"]["tags"]
        assert tags["cached"] is True
        assert 0 < tags["selected"] < tags["rows"]
        assert tags["groups"] > 0
        assert spans["engine.aggregate"]["parent_id"] \
            == spans["aqp.execute"]["span_id"]

    def test_bad_limit_is_400(self, warehouse):
        async def main():
            server = await _started(warehouse)
            try:
                status, _ = await request(
                    "127.0.0.1", server.port, "GET",
                    "/debug/traces?limit=nope",
                )
                assert status == 400
            finally:
                await server.stop()

        asyncio.run(main())


class TestQueryLog:
    RECORD_KEYS = {
        "ts", "sql", "mode", "status", "outcome", "elapsed_seconds",
        "trace_id", "shape_key", "plan_cache", "answer_cache", "route",
        "shard_fanout", "executed", "sample", "sample_version",
        "fallback_exact", "predicted_cv", "max_group_cv", "cv_columns",
        "staleness", "group_cv_summary", "row_count", "latency",
    }

    def test_one_record_per_query_with_full_schema(
        self, warehouse, tmp_path
    ):
        log_path = tmp_path / "q.jsonl"

        async def main():
            qlog = QueryLog(log_path)
            server = await _started(warehouse, query_log=qlog)
            try:
                for _ in range(2):
                    status, _ = await request(
                        "127.0.0.1", server.port, "POST", "/query",
                        {"sql": SQL},
                    )
                    assert status == 200
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": "NOT SQL"},
                )
                assert status == 400
                status, stats = await request(
                    "127.0.0.1", server.port, "GET", "/stats"
                )
                assert status == 200
                return stats
            finally:
                await server.stop()
                qlog.close()

        stats = asyncio.run(main())
        assert stats["query_log"]["records_written"] == 3

        records = [
            json.loads(line)
            for line in log_path.read_text().splitlines()
        ]
        assert len(records) == 3
        ok_first, ok_second, bad = records
        assert self.RECORD_KEYS <= set(ok_first)
        assert ok_first["outcome"] == "ok"
        assert ok_first["answer_cache"] == "miss"
        assert ok_second["answer_cache"] == "hit"
        assert ok_first["executed"] == "approximate"
        assert ok_first["sample"] == "s"
        assert ok_first["group_cv_summary"]["groups"] > 0
        assert ok_first["latency"]  # per-span breakdown is non-empty
        assert bad["outcome"] == "error"
        assert bad["status"] == 400
        # distinct queries get distinct traces
        assert len({r["trace_id"] for r in records}) == 3

    def test_logged_trace_id_matches_debug_traces(
        self, warehouse, tmp_path
    ):
        log_path = tmp_path / "q.jsonl"

        async def main():
            qlog = QueryLog(log_path)
            server = await _started(warehouse, query_log=qlog)
            try:
                status, _ = await request(
                    "127.0.0.1", server.port, "POST", "/query",
                    {"sql": SQL},
                )
                assert status == 200
                status, payload = await request(
                    "127.0.0.1", server.port, "GET",
                    "/debug/traces?limit=1",
                )
                assert status == 200
                return payload["traces"][0]
            finally:
                await server.stop()
                qlog.close()

        trace = asyncio.run(main())
        record = json.loads(log_path.read_text().splitlines()[-1])
        assert record["trace_id"] == trace["trace_id"]


class TestCrossProcessTracing:
    def test_worker_spans_share_the_front_trace_id(
        self, tmp_path, openaq_small
    ):
        # The acceptance-criteria scenario: a query on a 2-shard
        # topology with real spawned worker processes produces ONE
        # trace whose worker-side spans carry the front's trace id and
        # a foreign pid.
        if _BACKEND == "memory":
            pytest.skip("memory backend is per-process")
        service = ShardedWarehouseService(
            tmp_path / "wh", {"OpenAQ": openaq_small}, shards=2,
            backend=_BACKEND, workers="process",
        )
        try:
            service.build(
                "s", "OpenAQ", group_by=["country"],
                value_columns=["value"], budget=800, seed=4,
            )
            tracer = default_tracer()
            with tracer.trace("test.query") as t:
                service.query(SQL)
            d = t.trace.to_dict()
        finally:
            service.close()

        names = [s["name"] for s in d["spans"]]
        assert "shard.merge" in names
        assert names.count("shard.rpc") >= 2  # one per shard fan-out
        worker_spans = [
            s for s in d["spans"] if s["name"] == "shard.partials"
        ]
        assert len(worker_spans) == 2
        for span in worker_spans:
            assert span["trace_id"] == d["trace_id"]
            assert span["tags"]["pid"] != os.getpid()  # crossed a process
        assert {s["tags"]["shard"] for s in worker_spans} == {0, 1}
        assert d["tags"]["shard_fanout"] == 2

    def test_inprocess_workers_graft_without_duplicates(
        self, tmp_path, openaq_small
    ):
        # In-process shard clients share the front's tracer; grafting
        # must not double-record their spans.
        service = ShardedWarehouseService(
            tmp_path / "wh", {"OpenAQ": openaq_small}, shards=2,
            backend=_BACKEND, workers="inprocess",
        )
        try:
            service.build(
                "s", "OpenAQ", group_by=["country"],
                value_columns=["value"], budget=800, seed=4,
            )
            tracer = default_tracer()
            with tracer.trace("test.query") as t:
                service.query(SQL)
            d = t.trace.to_dict()
        finally:
            service.close()
        worker_spans = [
            s for s in d["spans"] if s["name"] == "shard.partials"
        ]
        assert len(worker_spans) == 2
        assert {s["tags"]["shard"] for s in worker_spans} == {0, 1}


class TestStatsCounterRace:
    def test_counters_snapshot_is_atomic_under_churn(self):
        # Regression: /stats used to read cache.hits / cache.misses /
        # len(cache) as three unlocked attribute accesses and could
        # see a torn view mid-lookup during a version hot-swap. The
        # snapshot must come from LRUCache.counters() (single lock
        # acquisition): hits + misses never exceeds completed lookups.
        cache = LRUCache(capacity=8)
        stop = threading.Event()
        completed = [0]

        def churn():
            i = 0
            while not stop.is_set():
                cache.put(i % 16, i)
                cache.get((i + 4) % 16)
                completed[0] += 1
                i += 1

        worker = threading.Thread(target=churn)
        worker.start()
        try:
            for _ in range(300):
                snap = cache.counters()
                assert set(snap) == {
                    "size", "capacity", "hits", "misses"
                }
                assert snap["size"] <= snap["capacity"]
                assert snap["hits"] + snap["misses"] \
                    <= completed[0] + 1
        finally:
            stop.set()
            worker.join()
        final = cache.counters()
        assert final["hits"] + final["misses"] == completed[0]

    def test_service_stats_reports_cache_via_counters(self, warehouse):
        warehouse.query(SQL)
        warehouse.query(SQL)
        snap = warehouse.stats()["answer_cache"]
        assert set(snap) == {"size", "capacity", "hits", "misses"}
        assert snap["hits"] >= 1
        assert snap["misses"] >= 1
