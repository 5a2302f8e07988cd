"""Differential suite: the columnar streaming sampler against the
textbook record-at-a-time path.

The oracle lives here and shares no ingest code with
``repro.core.streaming``: one ``np.random.Generator``, one
:class:`~repro.engine.reservoir.Reservoir` (Algorithm R, ``offer`` per
record) and one ``WelfordAccumulator.add`` per tracked column per
record, in stream order; shrinking subsamples with the same
``rng.choice`` call. The sampler under test must retain the *same rows
in the same order* (``tobytes()``-identical columns, equal string
dictionaries), report equal keys / populations / sizes, agree on the
moments to 1e-12 and leave its generator in the *same state* — i.e. it
made exactly the draws Algorithm R makes, record by record.

Value data comes from a seeded numpy generator rather than hypothesis
floats: the two paths round moments differently in the last bits
(Chan merge of batch moments vs per-record Welford), which is only
invisible to the integer allocation when no two strata tie exactly.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import box_constrained_allocation, integerize
from repro.core.cvopt import CVOptSampler
from repro.core.sample import STRATUM_COLUMN, WEIGHT_COLUMN
from repro.core.spec import GroupByQuerySpec
from repro.core.streaming import StreamingCVOptSampler
from repro.datasets import generate_openaq
from repro.engine.reservoir import Reservoir
from repro.engine.schema import DType
from repro.engine.statistics import WelfordAccumulator
from repro.engine.table import Column, Table

KEY_COLUMNS = ("ks", "ki", "kb")
NUMERIC_COLUMNS = ("f", "i", "t", "f2")
#: Unsorted, with entries no row uses: finalize must re-canonicalise.
STRING_KEYS = ["zeta", "alpha", "mid", "Beta", "unused-key"]
LABELS = ["x-ray", "tango", "unused-label", "kilo"]


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
class Oracle:
    """Streaming CVOPT one record at a time, on dicts."""

    def __init__(self, group_by, columns, budget, pilot_rows, rng,
                 headroom=2.0, mean_floor=1e-9):
        self.group_by, self.columns = tuple(group_by), tuple(columns)
        self.budget, self.headroom = budget, headroom
        self.mean_floor, self.rng = mean_floor, rng
        self.strata = {}  # key -> [Reservoir, {column: Welford}]
        self.rows_seen, self.next_rebalance = 0, pilot_rows
        self.dtypes = {}

    @classmethod
    def resume(cls, sample, columns, rng, headroom=2.0):
        alloc = sample.allocation
        oracle = cls(alloc.by, columns, sample.budget,
                     max(1, sample.source_rows), rng, headroom)
        payload = sample.table.without_columns(
            [WEIGHT_COLUMN, STRATUM_COLUMN])
        oracle.note(payload)
        rows = list(payload.iter_rows())
        gids = sample.table.column(STRATUM_COLUMN).data
        for idx, key in enumerate(alloc.keys):
            population = int(alloc.populations[idx])
            reservoir = Reservoir(int(alloc.sizes[idx]), rng)
            reservoir._items = [rows[i] for i in np.flatnonzero(gids == idx)]
            reservoir._seen = population
            accs = {}
            for column in columns:
                cs = alloc.stats.stats_for(column)
                acc = accs[column] = WelfordAccumulator()
                acc.count = population
                acc.mean = float(cs.total[idx]) / population
                acc.m2 = max(
                    float(cs.total_sq[idx]) - population * acc.mean**2, 0.0)
            oracle.strata[tuple(key)] = [reservoir, accs]
        oracle.rows_seen = sample.source_rows
        oracle.next_rebalance = max(2 * sample.source_rows, 1)
        return oracle

    def note(self, table):
        for name in table.column_names:
            self.dtypes[name] = table.column(name).dtype

    def observe(self, record):
        key = tuple(record[a] for a in self.group_by)
        if key not in self.strata:
            capacity = max(
                1, int(self.headroom * self.budget / (len(self.strata) + 1)))
            self.strata[key] = [
                Reservoir(capacity, self.rng),
                {c: WelfordAccumulator() for c in self.columns},
            ]
        reservoir, accs = self.strata[key]
        for column in self.columns:
            accs[column].add(float(record[column]))
        reservoir.offer(dict(record))
        self.rows_seen += 1
        if self.rows_seen >= self.next_rebalance:
            self.rebalance()
            self.next_rebalance = max(
                self.next_rebalance * 2, self.rows_seen + 1)

    def observe_table(self, table):
        self.note(table)
        for record in table.iter_rows():
            self.observe(record)

    def decay_step(self, factor):
        for _, accs in self.strata.values():
            for acc in accs.values():
                acc.scale(factor)

    def rebalance(self):
        entries = list(self.strata.values())
        if not entries:
            return
        alphas = np.zeros(len(entries))
        for column in self.columns:
            means = np.asarray([abs(e[1][column].mean) for e in entries])
            stds = np.asarray([e[1][column].std for e in entries])
            finite = means[means > 0]
            floor = self.mean_floor * finite.max() if len(finite) else 1.0
            alphas += (stds / np.maximum(means, max(floor, 1e-300))) ** 2
        caps = np.asarray([e[0].capacity for e in entries], dtype=np.float64)
        target = box_constrained_allocation(
            alphas, self.budget, np.minimum(1.0, caps), caps)
        sizes = integerize(target, self.budget, caps.astype(np.int64))
        for entry, new in zip(entries, sizes):
            old = entry[0]
            if new >= old.capacity:
                continue
            items = old.sample()
            if len(items) > new:
                picked = self.rng.choice(len(items), size=int(new),
                                         replace=False)
                items = [items[i] for i in picked]
            entry[0] = Reservoir(int(new), self.rng)
            entry[0]._items, entry[0]._seen = items, old.seen

    def finalize(self):
        if self.strata:
            self.rebalance()
        rows, gids = [], []
        for idx, (reservoir, _) in enumerate(self.strata.values()):
            rows.extend(reservoir.sample())
            gids.extend([idx] * len(reservoir))
        populations = np.asarray(
            [e[0].seen for e in self.strata.values()], dtype=np.int64)
        sizes = np.bincount(
            np.asarray(gids, dtype=np.int64), minlength=len(self.strata))
        return {
            # records carry no logical dtype: a column no table ever
            # declared is inferred from the retained values
            "columns": {
                name: Column.from_values(
                    [r[name] for r in rows], self.dtypes.get(name))
                for name in (rows[0] if rows else ())
            },
            "gids": np.asarray(gids, dtype=np.int64),
            "keys": list(self.strata),
            "populations": populations,
            "sizes": sizes,
            "moments": {
                c: [(e[1][c].count, e[1][c].mean, e[1][c].m2)
                    for e in self.strata.values()]
                for c in self.columns
            },
        }


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def assert_same_sample(sample, expected, rng, oracle_rng):
    table, alloc = sample.table, sample.allocation
    assert [tuple(k) for k in alloc.keys] == expected["keys"]
    np.testing.assert_array_equal(alloc.populations, expected["populations"])
    np.testing.assert_array_equal(alloc.sizes, expected["sizes"])
    np.testing.assert_array_equal(
        table.column(STRATUM_COLUMN).data, expected["gids"])
    for name, want in expected["columns"].items():
        got = table.column(name)
        assert got.dtype is want.dtype, name
        assert got.data.dtype == want.data.dtype, name
        assert got.data.tobytes() == want.data.tobytes(), name
        assert got.categories == want.categories, name
    if expected["columns"]:
        assert set(table.column_names) == set(expected["columns"]) | {
            WEIGHT_COLUMN, STRATUM_COLUMN}
    size_of = np.maximum(alloc.sizes, 1)[expected["gids"]]
    np.testing.assert_array_equal(
        table.column(WEIGHT_COLUMN).data,
        alloc.populations[expected["gids"]] / size_of,
    )
    for column, states in expected["moments"].items():
        cs = alloc.stats.stats_for(column)
        count = np.asarray([s[0] for s in states], dtype=np.float64)
        mean = np.asarray([s[1] for s in states])
        m2 = np.asarray([s[2] for s in states])
        total_sq = m2 + count * mean**2
        np.testing.assert_allclose(cs.count, count, rtol=1e-12)
        np.testing.assert_allclose(
            cs.total, mean * count, rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(
            cs.total_sq, total_sq, rtol=1e-12, atol=1e-300)
        # the second central moment, to 1e-12 of the column's scale
        np.testing.assert_allclose(
            cs.total_sq - cs.total**2 / np.maximum(cs.count, 1e-300),
            m2, rtol=1e-9, atol=1e-12 * float(total_sq.max(initial=1.0)),
        )
    # same number of draws, of the same widths, in the same order
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------
def make_batch(data_rng, n, first_key=0, clustered=False):
    """``n`` rows of the full schema. ``first_key`` shifts which key
    values occur, so later batches bring strata the sample has never
    seen; ``clustered`` sorts by key, so they show up mid-batch."""
    k = (first_key + data_rng.integers(0, 3, n)) % (len(STRING_KEYS) - 1)
    if clustered:
        k = np.sort(k)
    return Table({
        "ks": Column.from_codes(k, STRING_KEYS),
        "ki": Column(DType.INT64, (k * 7 + data_rng.integers(0, 2, n)) % 5),
        "kb": Column(DType.BOOL, data_rng.random(n) < 0.4),
        "f": Column(DType.FLOAT64, np.abs(data_rng.normal(50, 12, n)) + 0.1),
        "i": Column(DType.INT64, data_rng.integers(1, 10**6, n)),
        "t": Column(DType.TIMESTAMP,
                    data_rng.integers(1_500_000_000, 1_600_000_000, n)),
        "s": Column.from_codes(
            data_rng.choice([0, 1, 3], n).astype(np.int32), LABELS),
        "f2": Column(DType.FLOAT64, data_rng.lognormal(1.0, 0.8, n) + 0.01),
    })


def feed(sampler, oracle, batch, cuts=(), by_record=()):
    """Stream ``batch`` into both, in segments that arrive either as a
    table or record by record (the oracle always works by record; how a
    segment arrives only decides whether it declares column dtypes)."""
    bounds = sorted({0, batch.num_rows, *(
        min(c, batch.num_rows) for c in cuts)})
    for n, (lo, hi) in enumerate(zip(bounds, bounds[1:] or bounds)):
        part = batch.take(np.arange(lo, hi))
        if n < len(by_record) and by_record[n]:
            for record in part.iter_rows():
                sampler.observe(record)
                oracle.observe(record)
        else:
            sampler.observe_table(part)
            oracle.observe_table(part)


def chain(group_by, columns, budget, seed, data_seed, sizes, *,
          start="fresh", pilot_rows=50, headroom=2.0, decay=None,
          cuts=(), by_record=(), clustered=False):
    """Run rounds of observe → (decay) → finalize on both paths, each
    later round resuming from the previous sample; compare every round.
    Returns the last sample."""
    data_rng = np.random.default_rng(data_seed)
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    sample = None
    if start == "built":
        base = make_batch(data_rng, 150)
        sample = CVOptSampler(
            [GroupByQuerySpec(group_by=tuple(group_by),
                              aggregates=tuple(columns))]
        ).sample(base, budget, seed=seed)
    for round_no, n in enumerate(sizes):
        if sample is None:
            sampler = StreamingCVOptSampler(
                group_by, columns, budget, pilot_rows, headroom=headroom,
                seed=rng, decay=decay)
            oracle = Oracle(group_by, columns, budget, pilot_rows,
                            oracle_rng, headroom)
        else:
            sampler = StreamingCVOptSampler.resume(
                sample, columns, headroom=headroom, seed=rng, decay=decay)
            oracle = Oracle.resume(sample, columns, oracle_rng, headroom)
        batch = make_batch(data_rng, n, first_key=round_no,
                           clustered=clustered)
        feed(sampler, oracle, batch, cuts, by_record)
        assert sampler.rows_seen == oracle.rows_seen
        if decay is not None:
            sampler.decay_step()
            oracle.decay_step(decay)
        sample = sampler.finalize()
        assert_same_sample(sample, oracle.finalize(), rng, oracle_rng)
        assert sample.source_rows == oracle.rows_seen
    return sample


# ----------------------------------------------------------------------
# properties
# ----------------------------------------------------------------------
class TestAgainstRecordAtATime:
    @settings(max_examples=60, deadline=None)
    @given(
        group_by=st.lists(st.sampled_from(KEY_COLUMNS), min_size=1,
                          max_size=3, unique=True),
        columns=st.lists(st.sampled_from(NUMERIC_COLUMNS), min_size=1,
                         max_size=3, unique=True),
        budget=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        data_seed=st.integers(0, 2**32 - 1),
        sizes=st.lists(st.integers(0, 260), min_size=1, max_size=4),
        start=st.sampled_from(["fresh", "built"]),
        pilot_rows=st.integers(1, 200),
        headroom=st.sampled_from([1.0, 2.0, 3.5]),
        decay=st.one_of(st.none(), st.floats(0.3, 1.0)),
        cuts=st.lists(st.integers(0, 260), max_size=3),
        by_record=st.lists(st.booleans(), max_size=4),
        clustered=st.booleans(),
    )
    def test_same_rows_same_draws(self, group_by, columns, budget, seed,
                                  data_seed, sizes, **options):
        chain(group_by, columns, budget, seed, data_seed, sizes, **options)

    def test_stratum_first_seen_mid_batch(self):
        # Key-sorted batches: every new stratum starts after rows of
        # known ones, and its capacity depends on how many preceded it.
        sample = chain(["ks", "ki"], ["f"], 25, 11, 5, [120, 160, 160],
                       pilot_rows=40, clustered=True)
        assert sample.allocation.num_strata > 4

    def test_batch_crossing_the_doubling_position(self):
        # Resumed at 150 source rows, the next re-balance is due at 300
        # and again at 600: a 700-row batch crosses both mid-batch.
        sample = chain(["ks"], ["f", "i"], 30, 3, 8, [700], start="built")
        assert sample.source_rows == 850

    def test_zero_capacity_stratum(self):
        # Budget below the stratum count: some strata hold no row, keep
        # counting their population, and never draw.
        sample = chain(["ks", "ki", "kb"], ["f2"], 3, 7, 2,
                       [200, 200, 200], start="built")
        assert (sample.allocation.sizes == 0).any()
        assert int(sample.allocation.populations.sum()) == 750

    def test_empty_batch(self):
        sample = chain(["ks"], ["f"], 20, 1, 4, [90, 0, 0, 60])
        assert sample.source_rows == 150

    def test_observe_interleaved_with_observe_table(self):
        chain(["ki", "kb"], ["t", "f"], 40, 21, 6, [240, 240],
              pilot_rows=64, cuts=[30, 31, 200],
              by_record=[True, False, True, False])

    def test_tracked_column_absent_from_the_statistics(self):
        # resume() then estimates the column from the sample rows,
        # scaled to the population — the same figures the per-record
        # loop gave.
        base = make_batch(np.random.default_rng(0), 400)
        sample = CVOptSampler(
            [GroupByQuerySpec(group_by=("ks",), aggregates=("f",))]
        ).sample(base, 60, seed=0)
        stats = StreamingCVOptSampler.resume(
            sample, ("f", "f2")).statistics().stats_for("f2")
        values = sample.table.column("f2").data
        gids = sample.table.column(STRATUM_COLUMN).data
        for idx, population in enumerate(sample.allocation.populations):
            acc = WelfordAccumulator()
            for v in values[gids == idx]:
                acc.add(float(v))
            factor = population / acc.count
            assert stats.count[idx] == population
            assert stats.total[idx] == pytest.approx(
                acc.mean * population, rel=1e-12)
            assert stats.total_sq[idx] == pytest.approx(
                acc.m2 * factor + population * acc.mean**2, rel=1e-12)


# ----------------------------------------------------------------------
# golden pin
# ----------------------------------------------------------------------
#: sha256 of the sample below, recorded from the commit *before* the
#: columnar sampler (per-row dict path). If it moves, the draws or the
#: row order changed: that is a new sampler, not an optimisation.
GOLDEN_SHA256 = (
    "6b6d31c7c1463d5cd455bb7df7e5658aef12e987cdeaa9564fd2641f93a189f4"
)


def test_golden_sample_after_four_chained_refreshes():
    table = generate_openaq(num_rows=20_000, seed=11)
    sample = CVOptSampler(
        [GroupByQuerySpec(group_by=("country", "parameter"),
                          aggregates=("value", "latitude"))]
    ).sample(table.take(np.arange(12_000)), 1_500, seed=0)
    for i in range(4):
        sampler = StreamingCVOptSampler.resume(
            sample, ("value", "latitude"), seed=i)
        sampler.observe_table(
            table.take(np.arange(12_000 + 2_000 * i, 14_000 + 2_000 * i)))
        sample = sampler.finalize()
    digest = hashlib.sha256()
    for name in sample.table.column_names:
        column = sample.table.column(name)
        digest.update(f"{name}:{column.dtype.value}:".encode())
        digest.update(np.ascontiguousarray(column.data).tobytes())
        digest.update(repr(column.categories).encode())
    digest.update(repr([tuple(k) for k in sample.allocation.keys]).encode())
    digest.update(sample.allocation.populations.tobytes())
    digest.update(sample.allocation.sizes.tobytes())
    assert digest.hexdigest() == GOLDEN_SHA256
