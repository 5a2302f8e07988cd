"""Scatter-gather topology: equivalence with the local one, contracts
on merged moments, parallel refresh, and central rebuild escalation.

What the front promises on *either* topology (answer cache, contract
reject/fallback, orphan adoption, common stats/health keys) is asserted
once, over the ``open_service`` fixture, in test_service.py,
test_contracts.py and test_window_routing.py."""

import os

import numpy as np
import pytest

from repro.engine.sql.executor import execute_sql
from repro.warehouse import ShardedWarehouseService, WarehouseService

# CI legs re-run this suite per storage backend (see conftest.py)
_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")

SQL = "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"
QUERIES = [
    SQL,
    "SELECT country, SUM(value) s, COUNT(*) c FROM OpenAQ "
    "GROUP BY country ORDER BY s DESC LIMIT 5",
    "SELECT parameter, MIN(value) lo, MAX(value) hi, STD(value) sd "
    "FROM OpenAQ WHERE country = 'C00' GROUP BY parameter",
    "SELECT COUNT(*) n FROM OpenAQ",
    "SELECT country, SUM(value) / COUNT(value) m FROM OpenAQ "
    "GROUP BY country ORDER BY country",
]


def _by_key(table, key_cols, value_cols):
    """Order-independent {key: values} view of an answer table."""
    keys = (
        list(
            zip(*(table.column(c).decode() for c in key_cols))
        )
        if key_cols
        else [()] * table.num_rows
    )
    return {
        k: tuple(
            float(table.column(c).data[i]) for c in value_cols
        )
        for i, k in enumerate(keys)
    }


@pytest.fixture()
def pair(tmp_path, openaq_small):
    """A 3-shard front and an unsharded twin built identically."""
    sharded = ShardedWarehouseService(
        tmp_path / "sh", {"OpenAQ": openaq_small}, shards=3,
        backend=_BACKEND, workers="inprocess",
    )
    sharded.build(
        "s", "OpenAQ", group_by=["country"], value_columns=["value"],
        budget=800, seed=4,
    )
    plain = WarehouseService(
        tmp_path / "un", {"OpenAQ": openaq_small}, backend=_BACKEND
    )
    plain.build(
        "s", "OpenAQ", group_by=["country"], value_columns=["value"],
        budget=800, seed=4,
    )
    yield sharded, plain
    sharded.close()


class TestEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_answers_match_unsharded(self, pair, sql):
        sharded, plain = pair
        a = sharded.query(sql)
        b = plain.query(sql)
        assert a.route.approximate == b.route.approximate
        key_cols = [
            c
            for c in a.table.column_names
            if a.table.column(c).categories is not None
        ]
        value_cols = [
            c for c in a.table.column_names if c not in key_cols
        ]
        got = _by_key(a.table, key_cols, value_cols)
        want = _by_key(b.table, key_cols, value_cols)
        assert set(got) == set(want)
        for key, values in want.items():
            assert got[key] == pytest.approx(values, rel=1e-9)

    def test_route_scores_match(self, pair):
        sharded, plain = pair
        a = sharded.query(SQL).route
        b = plain.query(SQL).route
        assert a.sample_name == b.sample_name == "s"
        assert a.predicted_cv == pytest.approx(
            b.predicted_cv, rel=1e-12
        )

    def test_exact_mode_matches(self, pair):
        sharded, plain = pair
        a = sharded.query(SQL, mode="exact")
        b = plain.query(SQL, mode="exact")
        assert not a.route.approximate
        got = _by_key(a.table, ["country"], ["a"])
        want = _by_key(b.table, ["country"], ["a"])
        assert got == want

    def test_contract_cvs_match(self, pair):
        sharded, plain = pair
        ca = sharded.query_with_contract(SQL).contract
        cb = plain.query_with_contract(SQL).contract
        assert ca.executed == cb.executed == "approximate"
        assert ca.predicted_cv == pytest.approx(
            cb.predicted_cv, rel=1e-12
        )
        # Same key -> cv mapping (group order may differ).
        assert dict(zip(ca.group_keys, ca.group_cvs)) == pytest.approx(
            dict(zip(cb.group_keys, cb.group_cvs)), rel=1e-12
        )


class TestServing:
    def test_non_decomposable_falls_back_exact(self, pair, openaq_small):
        sharded, _ = pair
        sql = (
            "SELECT country, MEDIAN(value) m FROM OpenAQ "
            "GROUP BY country"
        )
        result = sharded.query(sql)
        assert not result.route.approximate
        assert "does not decompose" in result.route.reason
        expected = execute_sql(sql, {"OpenAQ": openaq_small})
        assert _by_key(result.table, ["country"], ["m"]) == _by_key(
            expected, ["country"], ["m"]
        )

    def test_non_decomposable_approx_mode_rejected(self, pair):
        from repro.engine.sql.errors import QueryExecutionError

        sharded, _ = pair
        with pytest.raises(QueryExecutionError, match="decompose"):
            sharded.query(
                "SELECT country, MEDIAN(value) m FROM OpenAQ "
                "GROUP BY country",
                mode="approx",
            )

    def test_shard_failure_falls_back_exact(self, pair):
        sharded, _ = pair
        sharded.clients[1].server.service._session.drop_sample("s")
        result = sharded.query(SQL)
        assert not result.route.approximate
        assert "shard fan-out failed" in result.route.reason

    def test_contract_names_the_versions_that_answered(
        self, pair, openaq_small
    ):
        """A worker hot-swaps after the front routed but before it
        gathered: the contract must name the version whose rows came
        back, not the one the front last heard about."""
        from repro.warehouse import partition_table

        sharded, _ = pair
        piece = partition_table(
            openaq_small.take(np.arange(0, 600)), ("country",), 3
        )[0]
        assert piece.num_rows > 0
        client = sharded.clients[0]
        real_request = client.request

        def swap_then_answer(op, **payload):
            if op == "partials":
                client.request = real_request
                real_request("refresh", name="s", batch=piece, seed=1)
            return real_request(op, **payload)

        client.request = swap_then_answer
        contract = sharded.query_with_contract(SQL).contract
        assert contract.sample_version == (
            "shard00=v000002|shard01=v000001|shard02=v000001"
        )
        # The front itself has not looked at the shards again yet.
        assert sharded.served_versions()["s"] == "v000001"


class TestMaintenance:
    def test_refresh_matches_unsharded_accounting(
        self, pair, openaq_small
    ):
        sharded, plain = pair
        batch = openaq_small.take(np.arange(0, 2000))
        a = sharded.refresh("s", batch, seed=9)
        b = plain.refresh("s", batch, seed=9)
        assert a.action == b.action == "incremental"
        assert a.rows_ingested == b.rows_ingested == batch.num_rows
        assert a.source_rows == b.source_rows
        assert a.staleness == pytest.approx(b.staleness)
        # The post-refresh merged statistics stay exact: routing sees
        # the same numbers the unsharded maintainer computes.
        ra = sharded.query(SQL).route
        rb = plain.query(SQL).route
        assert ra.predicted_cv == pytest.approx(
            rb.predicted_cv, rel=1e-9
        )

    def test_refresh_bumps_epoch_and_versions(self, pair, openaq_small):
        sharded, _ = pair
        before = sharded.served_versions()["s"]
        epoch = sharded.epoch
        sharded.refresh(
            "s", openaq_small.take(np.arange(0, 300)), seed=1
        )
        assert sharded.served_versions()["s"] != before
        assert sharded.epoch > epoch

    def test_rebuild_escalates_centrally(self, tmp_path, openaq_small):
        # threshold 1.0 makes any drift trigger escalation; the front
        # owns the full table, so the rebuild happens centrally and the
        # rebuilt pieces land on every shard.
        with ShardedWarehouseService(
            tmp_path / "wh", {"OpenAQ": openaq_small}, shards=2,
            backend=_BACKEND, workers="inprocess",
            cv_degradation_threshold=1.0,
        ) as service:
            service.build(
                "s", "OpenAQ", group_by=["country"],
                value_columns=["value"], budget=600, seed=2,
            )
            report = service.refresh(
                "s", openaq_small.take(np.arange(0, 4000)), seed=3
            )
            assert report.action == "rebuild"
            lineage = service.served_lineages()["s"]
            assert lineage["action"] == "rebuild"
            assert not lineage["needs_rebuild"]
            assert service.query(SQL).route.approximate


class TestTopology:
    def test_single_shard_answers_like_unsharded(
        self, tmp_path, openaq_small
    ):
        with ShardedWarehouseService(
            tmp_path / "wh", {"OpenAQ": openaq_small}, shards=1,
            backend=_BACKEND, workers="inprocess",
        ) as service:
            service.build(
                "s", "OpenAQ", group_by=["country"],
                value_columns=["value"], budget=800, seed=4,
            )
            plain = WarehouseService(
                tmp_path / "un", {"OpenAQ": openaq_small},
                backend=_BACKEND,
            )
            plain.build(
                "s", "OpenAQ", group_by=["country"],
                value_columns=["value"], budget=800, seed=4,
            )
            got = _by_key(service.query(SQL).table, ["country"], ["a"])
            want = _by_key(plain.query(SQL).table, ["country"], ["a"])
            assert set(got) == set(want)
            for key, values in want.items():
                assert got[key] == pytest.approx(values, rel=1e-9)

    def test_health_and_stats_expose_shards(self, pair):
        sharded, _ = pair
        health = sharded.health()
        assert health["shards"] == {"count": 3, "alive": 3}
        stats = sharded.stats()
        assert stats["store"]["shards"]["count"] == 3
        assert len(stats["shards"]) == 3
        assert {s["shard"] for s in stats["shards"]} == {0, 1, 2}
        assert stats["samples"]["s"]["rows"] > 0
        summary = sharded.sample_summaries()[0]
        assert summary["shards"] == 3
