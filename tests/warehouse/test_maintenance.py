"""Incremental maintenance: streaming ingest, staleness, drift, and the
pinned accuracy bound of the acceptance criterion."""

import numpy as np
import pytest

from repro.aqp.planning import predict_group_cvs
from repro.core.cvopt import CVOptSampler
from repro.core.sample import STRATUM_COLUMN, WEIGHT_COLUMN
from repro.core.spec import GroupByQuerySpec
from repro.core.streaming import StreamingCVOptSampler
from repro.engine.statistics import collect_strata_statistics
from repro.engine.table import Table
import os

from repro.warehouse import SampleMaintainer, SampleStore

# CI legs re-run this suite per storage backend (see tests/warehouse/conftest.py)
_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")


def split_rows(table, *fractions):
    """Split a table into consecutive row ranges by cumulative fraction."""
    n = table.num_rows
    bounds = [0] + [int(n * f) for f in fractions] + [n]
    return [
        table.take(np.arange(bounds[i], bounds[i + 1]))
        for i in range(len(bounds) - 1)
    ]


@pytest.fixture()
def store(tmp_path):
    return SampleStore(tmp_path / "wh", backend=_BACKEND)


@pytest.fixture()
def maintainer(store):
    return SampleMaintainer(store)


class TestResume:
    def test_resume_preserves_population_accounting(self, openaq_small):
        base, batch = split_rows(openaq_small, 0.7)
        sample = CVOptSampler(
            [GroupByQuerySpec.single("value", by=("country",))]
        ).sample(base, 600, seed=0)
        sampler = StreamingCVOptSampler.resume(sample, "value", seed=1)
        assert sampler.rows_seen == base.num_rows
        sampler.observe_table(batch)
        refreshed = sampler.finalize()
        assert refreshed.source_rows == openaq_small.num_rows
        assert (
            int(refreshed.allocation.populations.sum())
            == openaq_small.num_rows
        )
        # Exact merged statistics: totals match a full-table scan.
        stats = refreshed.allocation.stats
        full = collect_strata_statistics(
            openaq_small, ("country",), ["value"]
        )
        idx = {k: i for i, k in enumerate(full.keys)}
        order = [idx[tuple(k)] for k in refreshed.allocation.keys]
        np.testing.assert_allclose(
            stats.stats_for("value").total,
            full.stats_for("value").total[order],
        )

    def test_resume_weights_are_ht(self, openaq_small):
        base, batch = split_rows(openaq_small, 0.7)
        sample = CVOptSampler(
            [GroupByQuerySpec.single("value", by=("country",))]
        ).sample(base, 600, seed=0)
        sampler = StreamingCVOptSampler.resume(sample, "value", seed=1)
        sampler.observe_table(batch)
        refreshed = sampler.finalize()
        alloc = refreshed.allocation
        gids = refreshed.table.column(STRATUM_COLUMN).data
        expected = alloc.populations[gids] / np.maximum(
            alloc.sizes[gids], 1
        )
        np.testing.assert_allclose(
            refreshed.table.column(WEIGHT_COLUMN).data, expected
        )

    def test_new_strata_fold_in(self):
        base = Table.from_pydict(
            {"g": ["a"] * 50 + ["b"] * 50, "x": list(range(100))}
        )
        batch = Table.from_pydict(
            {"g": ["c"] * 40, "x": [float(i) for i in range(40)]}
        )
        sample = CVOptSampler(
            [GroupByQuerySpec.single("x", by=("g",))]
        ).sample(base, 30, seed=0)
        sampler = StreamingCVOptSampler.resume(sample, "x", seed=1)
        sampler.observe_table(batch)
        refreshed = sampler.finalize()
        keys = [k[0] for k in refreshed.allocation.keys]
        assert "c" in keys
        c = keys.index("c")
        assert refreshed.allocation.populations[c] == 40
        assert refreshed.allocation.sizes[c] > 0


class TestMaintainer:
    def test_build_then_refresh_lineage(self, maintainer, openaq_small):
        base, b1, b2 = split_rows(openaq_small, 0.6, 0.8)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=800, table_name="OpenAQ", seed=0,
        )
        r1 = maintainer.refresh("s", b1, seed=1)
        assert r1.action == "incremental"
        assert r1.version == "v000002"
        r2 = maintainer.refresh("s", b2, seed=2)
        info = maintainer.staleness("s")
        assert info.refresh_count == 2
        assert info.rows_ingested == b1.num_rows + b2.num_rows
        assert info.base_rows == base.num_rows
        assert info.staleness == pytest.approx(
            (b1.num_rows + b2.num_rows) / base.num_rows
        )
        assert r2.source_rows == openaq_small.num_rows

    def test_refresh_is_one_pass_over_the_batch_only(
        self, maintainer, openaq_small
    ):
        # The maintained sample's population accounting covers rows the
        # maintainer never rescanned: only the batch is streamed.
        base, batch = split_rows(openaq_small, 0.75)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=600, seed=0,
        )
        report = maintainer.refresh("s", batch, seed=1)
        assert report.rows_ingested == batch.num_rows
        stored = maintainer.store.get("s")
        assert stored.sample.source_rows == openaq_small.num_rows

    def test_drift_near_one_on_stationary_data(
        self, maintainer, openaq_small
    ):
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=800, seed=0,
        )
        report = maintainer.refresh("s", batch, seed=1)
        assert report.drift == pytest.approx(1.0, abs=0.05)
        assert not report.needs_rebuild

    def test_drift_escalation_flags_rebuild(self, tmp_path):
        # Base: two low-variance strata. Batch: stratum "b" explodes in
        # variance and size, so its optimal share grows far past its
        # shrink-only capacity -> drift crosses the threshold.
        rng = np.random.default_rng(0)
        base = Table.from_pydict(
            {
                "g": ["a"] * 2000 + ["b"] * 50,
                "x": list(10 + rng.normal(0, 0.1, 2000))
                + list(10 + rng.normal(0, 0.1, 50)),
            }
        )
        batch = Table.from_pydict(
            {
                "g": ["b"] * 4000,
                "x": list(np.abs(rng.normal(5, 200, 4000)) + 0.1),
            }
        )
        store = SampleStore(tmp_path / "wh", backend=_BACKEND)
        maintainer = SampleMaintainer(store, cv_degradation_threshold=1.5)
        maintainer.build(
            "s", base, group_by=["g"], value_columns=["x"], budget=120,
            seed=0,
        )
        report = maintainer.refresh("s", batch, seed=1)
        assert report.drift > 1.5
        assert report.needs_rebuild
        assert maintainer.staleness("s").needs_rebuild

    def test_escalation_rebuilds_with_full_table(self, tmp_path):
        rng = np.random.default_rng(0)
        base = Table.from_pydict(
            {
                "g": ["a"] * 2000 + ["b"] * 50,
                "x": list(10 + rng.normal(0, 0.1, 2000))
                + list(10 + rng.normal(0, 0.1, 50)),
            }
        )
        batch = Table.from_pydict(
            {
                "g": ["b"] * 4000,
                "x": list(np.abs(rng.normal(5, 200, 4000)) + 0.1),
            }
        )
        full = base.concat(batch)
        store = SampleStore(tmp_path / "wh", backend=_BACKEND)
        maintainer = SampleMaintainer(store, cv_degradation_threshold=1.5)
        maintainer.build(
            "s", base, group_by=["g"], value_columns=["x"], budget=120,
            seed=0,
        )
        report = maintainer.refresh("s", batch, full_table=full, seed=1)
        assert report.action == "rebuild"
        assert not report.needs_rebuild
        assert report.staleness == 0.0
        info = maintainer.staleness("s")
        assert info.refresh_count == 0  # lineage reset by the rebuild
        assert info.drift == pytest.approx(1.0, abs=0.1)

    def test_refresh_preserves_multi_column_statistics(
        self, maintainer, openaq_small
    ):
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"],
            value_columns=["value", "latitude"], budget=600, seed=0,
        )
        maintainer.refresh("s", batch, seed=1)
        stats = maintainer.store.get("s").statistics
        assert set(stats.columns) == {"value", "latitude"}
        # The merged second-column moments equal a full-table scan.
        full = collect_strata_statistics(
            openaq_small, ("country",), ["latitude"]
        )
        idx = {k: i for i, k in enumerate(full.keys)}
        order = [idx[tuple(k)] for k in stats.keys]
        np.testing.assert_allclose(
            stats.stats_for("latitude").total,
            full.stats_for("latitude").total[order],
        )
        np.testing.assert_allclose(
            stats.stats_for("latitude").total_sq,
            full.stats_for("latitude").total_sq[order],
        )

    def test_batch_schema_mismatch_rejected(self, maintainer, openaq_small):
        base, _ = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=500, seed=0,
        )
        bad = Table.from_pydict({"country": ["US"], "other": [1.0]})
        # The tracked value column is named in the error along with what
        # the batch actually carries — no heuristic fallback.
        with pytest.raises(
            ValueError, match="tracks value column\\(s\\) value"
        ) as excinfo:
            maintainer.refresh("s", bad)
        assert "'s'" in str(excinfo.value)
        assert "country" in str(excinfo.value)

    def test_columns_override_unknown_to_sample_rejected(
        self, maintainer, openaq_small
    ):
        # The override may only narrow/reorder what the sample's rows
        # carry; a column the stored sample never kept cannot be
        # tracked incrementally and must fail up front with a clear
        # error, not a KeyError deep in the sampler.
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=500, seed=0,
        )
        from repro.engine.schema import DType
        from repro.engine.table import Column

        widened = batch.with_column(
            "brand_new",
            Column(DType.FLOAT64, np.ones(batch.num_rows)),
        )
        with pytest.raises(
            ValueError, match="does not carry column"
        ) as excinfo:
            maintainer.refresh("s", widened, columns=["brand_new"])
        assert "'s'" in str(excinfo.value)
        assert "rebuild" in str(excinfo.value)

    def test_batch_missing_untracked_payload_column_rejected(
        self, maintainer, openaq_small
    ):
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=500, seed=0,
        )
        narrowed = batch.select(
            [n for n in batch.column_names if n != "latitude"]
        )
        with pytest.raises(ValueError, match="missing sample columns"):
            maintainer.refresh("s", narrowed)

    def test_batch_with_extra_columns_is_projected(
        self, maintainer, openaq_small
    ):
        # A widened upstream schema must not poison the reservoirs with
        # heterogeneous rows: extra columns are dropped on ingest.
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=500, seed=0,
        )
        from repro.engine.schema import DType
        from repro.engine.table import Column

        widened = batch.with_column(
            "extra",
            Column(
                DType.FLOAT64, np.zeros(batch.num_rows, dtype=np.float64)
            ),
        )
        report = maintainer.refresh("s", widened, seed=1)
        refreshed = maintainer.store.get("s").sample
        assert report.source_rows == openaq_small.num_rows
        assert "extra" not in refreshed.table

    def test_numeric_dtype_mismatch_takes_the_batch_dtype(self, maintainer):
        # An INT64 sample column meeting a FLOAT64 batch column: the
        # retained values are cast to the batch's dtype, no row is lost.
        from repro.engine.schema import DType

        base = Table.from_pydict(
            {"g": ["a"] * 50 + ["b"] * 50, "x": list(range(100))}
        )
        maintainer.build(
            "s", base, group_by=["g"], value_columns=["x"], budget=30,
        )
        assert maintainer.store.get("s").sample.table.column("x").dtype \
            is DType.INT64
        batch = Table.from_pydict(
            {"g": ["a"] * 20, "x": [i + 0.5 for i in range(20)]}
        )
        report = maintainer.refresh("s", batch, seed=1)
        refreshed = maintainer.store.get("s").sample
        assert refreshed.table.column("x").dtype is DType.FLOAT64
        assert report.source_rows == 120
        assert int(refreshed.allocation.populations.sum()) == 120

    def test_string_vs_numeric_mismatch_is_refused_by_name(
        self, maintainer, openaq_small
    ):
        # A STRING column arriving where the sample holds numbers (or
        # the reverse) is a data error the daemon should quarantine on
        # sight: one ValueError naming sample, column and both dtypes,
        # raised before a version is written.
        base, batch = split_rows(openaq_small, 0.7)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=500, seed=0,
        )
        from repro.engine.table import Column

        bad = batch.with_column(
            "latitude",
            Column.from_strings(["north"] * batch.num_rows),
        )
        with pytest.raises(ValueError) as excinfo:
            maintainer.refresh("s", bad)
        message = str(excinfo.value)
        for part in ("'s'", "'latitude'", "float64", "string"):
            assert part in message, message
        assert maintainer.store.get("s").version == "v000001"

        numbers = batch.with_column(
            "parameter",
            Column.from_values(np.zeros(batch.num_rows)),
        )
        with pytest.raises(ValueError, match="'parameter'"):
            maintainer.refresh("s", numbers)


class TestAccuracyPin:
    """Acceptance criterion: built + persisted + reloaded + refreshed
    sample stays within 1.25x the per-group CV of a fresh two-pass
    CVOPT sample of the same budget."""

    BUDGET = 1200

    def test_per_group_cv_within_125_percent_of_fresh(
        self, tmp_path, openaq_small
    ):
        base, b1, b2 = split_rows(openaq_small, 0.6, 0.8)
        store = SampleStore(tmp_path / "wh", backend=_BACKEND)
        maintainer = SampleMaintainer(store)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=self.BUDGET, seed=0,
        )
        # Round-trip through disk between refreshes: each refresh loads
        # the persisted version, never the in-memory object.
        maintainer.refresh("s", b1, seed=1)
        maintainer.refresh("s", b2, seed=2)
        incremental = store.get("s").sample

        fresh = CVOptSampler(
            [GroupByQuerySpec.single("value", by=("country",))]
        ).sample(openaq_small, self.BUDGET, seed=0)

        # Predicted per-group estimate CVs from exact full-table
        # statistics — deterministic, no Monte-Carlo noise.
        full = collect_strata_statistics(
            openaq_small, ("country",), ["value"]
        )
        idx = {k: i for i, k in enumerate(full.keys)}
        data_cvs = np.nan_to_num(
            full.stats_for("value").cv(mean_floor=1e-9)
        )

        def per_group(sample):
            alloc = sample.allocation
            order = [idx[tuple(k)] for k in alloc.keys]
            cvs = predict_group_cvs(
                alloc.populations, data_cvs[order], alloc.sizes
            )
            return dict(zip(order, cvs))

        cv_incr = per_group(incremental)
        cv_fresh = per_group(fresh)
        assert set(cv_incr) == set(cv_fresh)  # same groups answerable
        for group in cv_fresh:
            assert np.isfinite(cv_incr[group])
            assert cv_incr[group] <= 1.25 * cv_fresh[group] + 1e-12

    def test_refreshed_sample_answers_accurately(
        self, tmp_path, openaq_small
    ):
        base, batch = split_rows(openaq_small, 0.7)
        store = SampleStore(tmp_path / "wh", backend=_BACKEND)
        maintainer = SampleMaintainer(store)
        maintainer.build(
            "s", base, group_by=["country"], value_columns=["value"],
            budget=self.BUDGET, seed=0,
        )
        maintainer.refresh("s", batch, seed=1)
        sample = store.get("s").sample
        sql = "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"
        from repro.engine.sql.executor import execute_sql

        exact = execute_sql(sql, {"OpenAQ": openaq_small})
        exact_by = dict(zip(exact["country"], exact["a"]))

        def mean_error(s):
            approx = s.answer(sql, "OpenAQ")
            approx_by = dict(zip(approx["country"], approx["a"]))
            assert set(approx_by) == set(exact_by)
            return float(
                np.mean(
                    [
                        abs(approx_by[c] - exact_by[c]) / abs(exact_by[c])
                        for c in exact_by
                    ]
                )
            )

        fresh = CVOptSampler(
            [GroupByQuerySpec.single("value", by=("country",))]
        ).sample(openaq_small, self.BUDGET, seed=0)
        # The synthetic values are heavy-tailed (per-group data CV ~2),
        # so absolute errors are sizeable even for the fresh two-pass
        # sample; what must hold is that one-pass maintenance does not
        # meaningfully degrade the estimate quality.
        assert mean_error(sample) <= 2.0 * mean_error(fresh) + 0.02
        assert mean_error(sample) < 0.25
