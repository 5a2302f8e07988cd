"""Property tests of the tumbling-window layer's central promise.

Windows partition the base rows, so the per-(stratum, column)
``(count, total, total_sq)`` moments of any set of covered windows
**sum** to the moments a single sample built on only the in-window rows
would carry — the sliding-window merge is exact, not approximate
(see ``repro/warehouse/windows.py``). The suite drives that invariant
with hypothesis-generated timestamped streams:

- merged 1..8-window slides are moment-exact (and therefore mean- and
  CV-exact per group) versus a from-scratch sample on the in-window
  rows,
- the invariant survives per-window resume/finalize round-trips (the
  store persists and reloads between refreshes),
- decay factors never let an older window outweigh a newer one at
  equal mass, and uniform moment scaling leaves per-window means and
  CVs untouched,
- tumbling windows are half-open: every row lands in exactly one
  window,
- a decayed, retention-pruned family answers, contracts and rejects
  identically whether its rows sit in one process or in two shards.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cvopt import CVOptSampler
from repro.core.spec import GroupByQuerySpec
from repro.core.streaming import StreamingCVOptSampler
from repro.engine.table import Table
from repro.warehouse import (
    AccuracyContractViolation,
    ShardedWarehouseService,
    WarehouseService,
)
from repro.warehouse.windows import (
    merge_window_allocations,
    merge_window_samples,
    partition_by_window,
    window_decay_factors,
    window_start,
)

WIDTH = 100  # seconds per tumbling window; streams span up to 8 windows
COLUMNS = ("a", "b")
SPEC = GroupByQuerySpec(group_by=("g",), aggregates=COLUMNS)

# Positive value columns: CVOPT's CV objective (paper Section 1) rejects
# a column whose group means are all zero.
rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["g1", "g2", "g3"]),
        st.integers(0, 8 * WIDTH - 1),  # event timestamp
        st.floats(0.1, 1000.0),  # a
        st.floats(1.0, 500.0),  # b
    ),
    min_size=8,
    max_size=160,
)


def make_table(rows):
    return Table.from_pydict(
        {
            "g": [r[0] for r in rows],
            "ts": [r[1] for r in rows],
            "a": [r[2] for r in rows],
            "b": [r[3] for r in rows],
        }
    )


def build_members(table, budget, seed=0):
    """One independent CVOPT sample per tumbling window, keyed by start
    (exactly what ``SampleMaintainer.build_windowed`` persists)."""
    return {
        start: CVOptSampler([SPEC]).sample(part, budget, seed=seed)
        for start, part in partition_by_window(table, "ts", WIDTH).items()
    }


def group_moments(stats, column):
    """``{group key: (count, total, total_sq)}`` for one column."""
    cs = stats.stats_for(column)
    return {
        tuple(k): (float(c), float(t), float(q))
        for k, c, t, q in zip(stats.keys, cs.count, cs.total, cs.total_sq)
    }


def mean_and_cv(moments):
    """Per-group mean and population CV derived purely from moments."""
    count, total, total_sq = moments
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    return mean, float(np.sqrt(var)) / mean


def assert_moment_equal(merged_stats, scratch_stats):
    assert set(map(tuple, merged_stats.keys)) == set(
        map(tuple, scratch_stats.keys)
    )
    for column in COLUMNS:
        merged = group_moments(merged_stats, column)
        scratch = group_moments(scratch_stats, column)
        for key, m in merged.items():
            s = scratch[key]
            # Counts are sums of integers: exact. Totals only differ by
            # float summation order.
            assert m[0] == s[0]
            np.testing.assert_allclose(m[1:], s[1:], rtol=1e-9, atol=1e-7)
            # atol absorbs catastrophic cancellation on zero-variance
            # groups, where sqrt(var) amplifies ~1e-16 moment noise.
            np.testing.assert_allclose(
                mean_and_cv(m), mean_and_cv(s), rtol=1e-9, atol=1e-6
            )


class TestWindowEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=rows_strategy,
        first=st.integers(0, 7),
        span=st.integers(1, 8),
        budget=st.integers(2, 30),
    )
    def test_merged_slide_is_moment_exact(self, rows, first, span, budget):
        """Any 1..8-window slide == a from-scratch sample on only the
        in-window rows, moment for moment (hence mean/CV for mean/CV)."""
        members = build_members(make_table(rows), budget)
        lo, hi = first * WIDTH, (first + span) * WIDTH
        covered = [s for s in members if lo <= s < hi]
        in_rows = [r for r in rows if lo <= window_start(r[1], WIDTH) < hi]
        if not covered:
            assert not in_rows
            return
        merged = merge_window_samples([members[s] for s in covered])
        scratch = CVOptSampler([SPEC]).sample(
            make_table(in_rows), budget, seed=0
        )
        assert merged.source_rows == len(in_rows)
        assert int(merged.allocation.populations.sum()) == len(in_rows)
        assert_moment_equal(merged.allocation.stats, scratch.allocation.stats)

    @settings(max_examples=30, deadline=None)
    @given(
        base_rows=rows_strategy,
        batch_rows=rows_strategy,
        budget=st.integers(2, 30),
    )
    def test_resume_round_trips_stay_exact(
        self, base_rows, batch_rows, budget
    ):
        """Refresh each open window via resume/finalize (the store
        round-trip the warehouse does), then merge everything: still
        moment-exact versus one sample over all rows."""
        members = build_members(make_table(base_rows), budget)
        for start, part in partition_by_window(
            make_table(batch_rows), "ts", WIDTH
        ).items():
            if start in members:
                sampler = StreamingCVOptSampler.resume(
                    members[start], COLUMNS, seed=start + 1
                )
                sampler.observe_table(part)
                members[start] = sampler.finalize()
            else:  # a window only the batch opened
                members[start] = CVOptSampler([SPEC]).sample(
                    part, budget, seed=0
                )
        merged = merge_window_samples(
            [members[s] for s in sorted(members)]
        )
        scratch = CVOptSampler([SPEC]).sample(
            make_table(base_rows + batch_rows), budget, seed=0
        )
        assert merged.source_rows == len(base_rows) + len(batch_rows)
        assert_moment_equal(merged.allocation.stats, scratch.allocation.stats)

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy)
    def test_every_row_lands_in_exactly_one_window(self, rows):
        """Half-open partition: window counts sum to the total and each
        part holds exactly the rows whose floored start matches."""
        table = make_table(rows)
        parts = partition_by_window(table, "ts", WIDTH)
        assert sum(p.num_rows for p in parts.values()) == table.num_rows
        for start, part in parts.items():
            ts = part.column("ts").values_numeric()
            assert ((ts >= start) & (ts < start + WIDTH)).all()
        from collections import Counter

        expected = Counter(window_start(r[1], WIDTH) for r in rows)
        assert {s: p.num_rows for s, p in parts.items()} == dict(expected)


class TestDecay:
    @settings(max_examples=40, deadline=None)
    @given(
        n_windows=st.integers(2, 8),
        decay=st.floats(0.05, 1.0),
        mass=st.integers(2, 20),
    )
    def test_older_windows_never_outweigh_newer_at_equal_mass(
        self, n_windows, decay, mass
    ):
        """Newest window's factor is exactly 1.0 and factors fall
        monotonically going back in time, so at equal raw mass an older
        window's decayed contribution can never exceed a newer one's."""
        rows = [
            ("g1", w * WIDTH + i, 1.0 + i, 1.0 + w)
            for w in range(n_windows)
            for i in range(mass)
        ]
        members = build_members(make_table(rows), budget=mass)
        starts = sorted(members)
        factors = window_decay_factors(starts, WIDTH, decay)
        assert factors[starts[-1]] == 1.0
        ordered = [factors[s] for s in starts]
        assert all(a <= b or np.isclose(a, b) for a, b in zip(ordered, ordered[1:]))
        merged = merge_window_allocations(
            [members[s].allocation for s in starts],
            factors=[factors[s] for s in starts],
        )
        # Decayed counts: sum over windows of factor * mass, exactly.
        total_count = group_moments(merged.stats, "a")[("g1",)][0]
        np.testing.assert_allclose(
            total_count, sum(f * mass for f in ordered), rtol=1e-12
        )
        # Raw integer populations are never decayed.
        assert int(merged.populations.sum()) == n_windows * mass

    @settings(max_examples=40, deadline=None)
    @given(rows=rows_strategy, factor=st.floats(0.05, 1.0))
    def test_uniform_scaling_preserves_mean_and_cv(self, rows, factor):
        """Scaling (count, total, total_sq) uniformly shifts a window's
        *mass*, not its shape: per-group mean and CV are unchanged."""
        members = build_members(make_table(rows), budget=16)
        start = sorted(members)[0]
        alloc = members[start].allocation
        scaled = merge_window_allocations([alloc], factors=[factor])
        for column in COLUMNS:
            raw = group_moments(alloc.stats, column)
            dec = group_moments(scaled.stats, column)
            for key in raw:
                np.testing.assert_allclose(
                    mean_and_cv(dec[key]),
                    mean_and_cv(raw[key]),
                    rtol=1e-9,
                    atol=1e-6,  # zero-variance cancellation noise
                )


class TestShardedDecayRetention:
    """Decay scales each window's moments, retention drops windows off
    the horizon; neither cares where a window's rows live. Windows and
    shards partition rows along orthogonal axes, so a 2-shard family is
    the plain family to float summation order."""

    N_WINDOWS = 8
    SLIDE = (
        "SELECT g, SUM(a) s, AVG(b) m, COUNT(*) c, MAX(a) hi "
        "FROM T WHERE ts >= {lo} GROUP BY g"
    )

    @settings(max_examples=12, deadline=None)
    @given(
        extra=rows_strategy,
        decay=st.floats(0.2, 1.0),
        retention=st.integers(2, 5),
        budget=st.integers(4, 25),
        seed=st.integers(0, 50),
    )
    def test_two_shards_equal_plain(
        self, extra, decay, retention, budget, seed
    ):
        # Every window is populated, so retention always expires some.
        rows = extra + [
            (g, w * WIDTH + i, 1.0 + i + w, 2.0 + w)
            for w in range(self.N_WINDOWS)
            for i, g in enumerate(["g1", "g2", "g3", "g1"])
        ]
        table = make_table(rows)
        oldest = (self.N_WINDOWS - retention) * WIDTH
        with tempfile.TemporaryDirectory() as root, ShardedWarehouseService(
            root + "/sharded", {"T": table}, shards=2, workers="inprocess"
        ) as sharded:
            plain = WarehouseService(root + "/plain", {"T": table})
            for service in (plain, sharded):
                service.build_windowed(
                    "s", "T", group_by=["g"], value_columns=["a", "b"],
                    budget=budget, ts_column="ts", window=WIDTH,
                    decay=decay, retention=retention, seed=seed,
                )
            assert sorted(sharded.samples()) == sorted(plain.samples())
            assert len(plain.samples()) == retention

            sql = self.SLIDE.format(lo=oldest)
            want = plain.query_with_contract(sql)
            got = sharded.query_with_contract(sql)
            assert want.contract.executed == "approximate"
            assert want.contract.sample_name == "s@slide"
            a, b = got.table.to_pydict(), want.table.to_pydict()
            order_a, order_b = np.argsort(a["g"]), np.argsort(b["g"])
            assert sorted(a["g"]) == sorted(b["g"])
            for column in ("s", "m", "c", "hi"):
                np.testing.assert_allclose(
                    np.asarray(a[column])[order_a],
                    np.asarray(b[column])[order_b],
                    rtol=1e-9,
                )
            ca, cb = got.contract, want.contract
            assert ca.sample_version == cb.sample_version
            assert ca.window_bounds == cb.window_bounds
            np.testing.assert_allclose(
                ca.predicted_cv, cb.predicted_cv, rtol=1e-9
            )
            assert ca.group_keys == cb.group_keys
            np.testing.assert_allclose(
                ca.group_cvs, cb.group_cvs, rtol=1e-9
            )

            below = self.SLIDE.format(lo=oldest - WIDTH)
            messages = []
            for service in (plain, sharded):
                try:
                    service.query_with_contract(below, on_violation="reject")
                except AccuracyContractViolation as exc:
                    messages.append(str(exc))
            assert len(messages) == 2 and messages[0] == messages[1]
            assert "retention" in messages[0]
