"""WarehouseService: routing, caching, swaps, and concurrency.

Serving and refresh cases run over both topologies through the
``open_service`` fixture (see conftest.py)."""

import os
import threading

import numpy as np
import pytest

from repro.engine.sql.executor import execute_sql
from repro.warehouse import LRUCache, RWLock, WarehouseService

# CI legs re-run this suite per storage backend (see conftest.py)
_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")

SQL = "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"


def halves(table):
    n = table.num_rows
    return (
        table.take(np.arange(0, n // 2)),
        table.take(np.arange(n // 2, n)),
    )


@pytest.fixture()
def service(tmp_path, openaq_small, open_service):
    svc = open_service(tmp_path / "wh", {"OpenAQ": openaq_small})
    svc.build(
        "s", "OpenAQ", group_by=["country"], value_columns=["value"],
        budget=800,
    )
    return svc


class TestInfiniteExtrema:
    """MIN/MAX of a group that contains ±inf is that infinity: an empty
    group is one with no rows, not one whose extremum looks like the
    kernels' identity. Same answer from the operators (plain) and from
    merged partials (sharded)."""

    def test_min_max_keep_infinities(self, tmp_path, open_service):
        from repro.engine.table import Table

        table = Table.from_pydict(
            {
                "g": ["a", "a", "b", "b", "c", "c"],
                "x": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                "z": [1.0, np.inf, -np.inf, 2.0, 3.0, 4.0],
            },
            name="T",
        )
        svc = open_service(tmp_path / "wh", {"T": table})
        # Budget covers every row, so the sample holds the infinities.
        svc.build("s", "T", ["g"], ["x"], budget=6)
        result = svc.query(
            "SELECT g, MIN(z) lo, MAX(z) hi FROM T GROUP BY g ORDER BY g"
        )
        assert result.route.approximate
        out = result.table.to_pydict()
        assert out["g"] == ["a", "b", "c"]
        assert out["lo"] == [1.0, -np.inf, 3.0]
        assert out["hi"] == [np.inf, 2.0, 4.0]
        # A WHERE that empties the table still reports NaN, not ±inf.
        empty = svc.query(
            "SELECT MIN(z) lo, MAX(z) hi FROM T WHERE x > 100"
        ).table.to_pydict()
        assert np.isnan(empty["lo"][0]) and np.isnan(empty["hi"][0])


class TestServing:
    def test_query_routes_to_sample(self, service):
        result = service.query(SQL)
        assert result.route.sample_name == "s"
        assert result.table.num_rows > 0

    def test_exact_mode_bypasses_samples(self, service):
        result = service.query(SQL, mode="exact")
        assert not result.route.approximate

    def test_answer_cache_hit(self, service):
        first = service.query(SQL)
        second = service.query(SQL)
        stats = service.stats()
        assert stats["answer_cache"]["hits"] == 1
        assert second is first  # memoized object, zero recompute

    def test_build_invalidates_cache(self, service, openaq_small):
        service.query(SQL)
        epoch = service.stats()["epoch"]
        service.build(
            "s2", "OpenAQ", group_by=["country", "parameter"],
            value_columns=["value"], budget=800,
        )
        assert service.stats()["epoch"] > epoch
        result = service.query(SQL)  # recomputed, not the stale entry
        assert result.route.approximate

    def test_warm_start_from_store(
        self, service, tmp_path, openaq_small, open_service
    ):
        # A second service over the same root adopts the stored sample.
        twin = open_service(tmp_path / "wh", {"OpenAQ": openaq_small})
        assert "s" in twin.samples()
        assert twin.query(SQL).route.sample_name == "s"

    def test_orphan_adopted_on_table_registration(
        self, service, tmp_path, openaq_small, open_service
    ):
        twin = open_service(tmp_path / "wh")
        assert twin.samples() == []
        twin.register_table("OpenAQ", openaq_small)
        assert "s" in twin.samples()
        assert twin.query(SQL).route.approximate

    def test_stats_snapshot(self, service, open_service):
        service.query(SQL)
        stats = service.stats()
        assert stats["tables"]["OpenAQ"] > 0
        assert stats["samples"]["s"]["version"] == "v000001"
        assert stats["queries_served"] >= 1
        for block in ("epoch", "store", "answer_cache", "groupcode_cache"):
            assert block in stats
        if open_service.topology == "plain":
            assert stats["samples"]["s"]["served_version"] == "v000001"
            assert "plan_cache" in stats and "shards" not in stats

    def test_health_snapshot(self, service):
        service.query(SQL)
        health = service.health()
        assert health["status"] == "ok"
        assert health["epoch"] == service.epoch
        assert health["tables"] == 1 and health["samples"] == 1
        assert health["queries_served"] == 1


class TestRefresh:
    def test_refresh_swaps_version_and_grows_base(
        self, tmp_path, openaq_small, open_service
    ):
        base, batch = halves(openaq_small)
        svc = open_service(tmp_path / "wh", {"OpenAQ": base})
        svc.build(
            "s", "OpenAQ", group_by=["country"], value_columns=["value"],
            budget=600,
        )
        report = svc.refresh("s", batch)
        assert report.action in ("incremental", "rebuild")
        assert svc.served_versions()["s"] == report.version
        # Exact fallback sees the appended rows too.
        exact = svc.execute("SELECT COUNT(*) c FROM OpenAQ")
        assert exact["c"][0] == openaq_small.num_rows

    def test_refreshed_sample_serves_consistent_population(
        self, tmp_path, openaq_small, open_service
    ):
        base, batch = halves(openaq_small)
        svc = open_service(tmp_path / "wh", {"OpenAQ": base})
        svc.build(
            "s", "OpenAQ", group_by=["country"], value_columns=["value"],
            budget=600,
        )
        svc.refresh("s", batch)
        approx = svc.query(
            "SELECT country, SUM(value) s FROM OpenAQ GROUP BY country"
        )
        assert approx.route.approximate
        exact = execute_sql(
            "SELECT SUM(value) s FROM OpenAQ", {"OpenAQ": openaq_small}
        )
        total = float(np.sum(approx.table["s"]))
        assert total == pytest.approx(float(exact["s"][0]), rel=0.25)


class TestConcurrency:
    def test_concurrent_reads_during_refresh(self, tmp_path, openaq_small):
        """Readers keep getting complete, routable answers while the
        writer swaps refreshed versions underneath them."""
        base, rest = halves(openaq_small)
        batches = halves(rest)
        svc = WarehouseService(
            tmp_path / "wh", {"OpenAQ": base}, backend=_BACKEND
        )
        svc.build(
            "s", "OpenAQ", group_by=["country"], value_columns=["value"],
            budget=500,
        )
        n_countries = len(set(base["country"]))

        stop = threading.Event()
        errors: list = []
        reads = [0]

        def reader():
            while not stop.is_set():
                try:
                    result = svc.query(SQL)
                    assert result.table.num_rows == n_countries
                    values = result.table["a"]
                    assert np.all(np.isfinite(values))
                    reads[0] += 1
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)
                    return

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for i, batch in enumerate(batches):
                svc.refresh("s", batch, seed=i)
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
        assert reads[0] > 0
        assert not any(t.is_alive() for t in threads)
        # After the dust settles the served version is the newest one.
        assert (
            svc.served_versions()["s"]
            == svc.store.current_version("s")
        )

    def test_reader_blocks_writer_not_vice_versa(self):
        lock = RWLock()
        order: list = []
        lock.acquire_read()

        def writer():
            with lock.write():
                order.append("write")

        t = threading.Thread(target=writer)
        t.start()
        # Writer must wait for the active reader...
        assert not order
        order.append("read-done")
        lock.release_read()
        t.join(timeout=10)
        assert order == ["read-done", "write"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = RWLock()
        lock.acquire_read()
        got_write = threading.Event()
        got_read = threading.Event()

        def writer():
            lock.acquire_write()
            got_write.set()
            lock.release_write()

        def late_reader():
            lock.acquire_read()
            got_read.set()
            lock.release_read()

        w = threading.Thread(target=writer)
        w.start()
        # Give the writer time to queue up.
        import time

        time.sleep(0.05)
        r = threading.Thread(target=late_reader)
        r.start()
        time.sleep(0.05)
        assert not got_read.is_set()  # writer preference holds
        lock.release_read()
        w.join(timeout=10)
        r.join(timeout=10)
        assert got_write.is_set() and got_read.is_set()


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'
        cache.put("c", 3)  # evicts 'b'
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0
