"""The benchmark's statistics on synthetic series (tier-1, < 2 s)."""

import random
import statistics

import pytest

import stats


def test_percentile_interpolates_like_numpy():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 25) == pytest.approx(1.75)
    assert stats.percentile([7.0], 95) == 7.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_quartiles_are_the_acceptance_rules_quartiles():
    values = [float(v) for v in (3, 9, 1, 7, 5, 11, 13, 2, 8, 6)]
    assert stats.quartiles(values) == statistics.quantiles(values, n=4)
    assert stats.quartiles([2.5]) == [2.5, 2.5, 2.5]
    q1, mid, q3 = stats.quartiles(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / mid)


def test_spread_of_a_constant_series_is_zero():
    assert stats.spread([3.0] * 10) == 0.0
    assert stats.spread([0.0] * 10) == 0.0


def test_supported_percentile_needs_ten_samples_beyond():
    assert stats.supported_percentile(5) is None
    assert stats.supported_percentile(20) == 50.0
    assert stats.supported_percentile(199) == 90.0
    assert stats.supported_percentile(200) == 95.0  # exactly ten beyond
    assert stats.supported_percentile(999) == 95.0
    assert stats.supported_percentile(1000) == 99.0
    assert stats.supported_percentile(10_000) == 99.9
    assert stats.supported_percentile(200, min_beyond=15) == 90.0


def test_a_disturbed_window_moves_the_mean_but_not_the_median():
    rng = random.Random(7)
    quiet = [[1.0 + rng.random() * 0.02 for _ in range(300)] for _ in range(9)]
    disturbed = [list(window) for window in quiet]
    disturbed[4] = [value * 3.0 for value in disturbed[4]]  # one bad window

    def p95(window):
        return stats.percentile(window, 95.0)

    def metric(windows, statistic):
        # How a run forms a metric: the per-window statistic of every
        # window, then the median over windows.
        return stats.summarize([statistic(w) for w in windows])["median"]

    for statistic in (stats.median, p95):
        before = metric(quiet, statistic)
        after = metric(disturbed, statistic)
        # The disturbed window was the median window at worst: the
        # median can only move to a neighbouring quiet window's value.
        assert abs(after - before) / before < 0.01

    pooled_before = [v for window in quiet for v in window]
    pooled_after = [v for window in disturbed for v in window]
    mean_shift = (
        statistics.fmean(pooled_after) / statistics.fmean(pooled_before) - 1.0
    )
    tail_shift = p95(pooled_after) / p95(pooled_before) - 1.0
    assert mean_shift > 0.15  # one long loop would have reported +22 %
    assert tail_shift > 1.0  # and its p95 would have tripled


def test_summarize_reports_quartiles_and_count():
    summary = stats.summarize([4.0, 2.0, 8.0, 6.0])
    assert summary["n"] == 4
    assert summary["median"] == 5.0
    assert summary["min"] == 2.0 and summary["max"] == 8.0
    assert summary["q1"] < summary["median"] < summary["q3"]


def test_relative_difference_is_direction_free():
    assert stats.relative_difference(10.0, 10.4) == pytest.approx(0.04)
    assert stats.relative_difference(10.0, 9.6) == pytest.approx(0.04)
    assert stats.relative_difference(0.0, 0.0) == 0.0
    # The A/A check fails a pair at half its bound.
    bound = 0.10
    assert stats.relative_difference(10.0, 10.4) <= bound / 2
    assert not stats.relative_difference(10.0, 10.6) <= bound / 2
