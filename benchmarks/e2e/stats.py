"""Statistics of the end-to-end benchmark: pure functions, no I/O.

A metric of a run is never one timing. It is the **median over windows
of a per-window statistic**: a disturbed window (a neighbour process, a
page-cache flush) moves one window's value and leaves the median where
it was, whereas the same disturbance inside one long loop moves that
loop's mean and its tail. ``test_stats.py`` pins that property.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Optional, Sequence

#: Percentiles a window may report, lowest first.
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (numpy's default)."""
    if not values:
        raise ValueError("percentile of an empty series")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty series")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` exactly as ``statistics.quantiles(n=4)``
    gives them (the acceptance rule is written in those terms); one
    value is its own three quartiles."""
    if not values:
        raise ValueError("quartiles of an empty series")
    if len(values) == 1:
        return [float(values[0])] * 3
    return [float(q) for q in statistics.quantiles(values, n=4)]


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median: the run-to-run noise figure compared against a bound."""
    q1, mid, q3 = quartiles(values)
    if mid == 0:
        return 0.0 if q1 == q3 else float("inf")
    return (q3 - q1) / abs(mid)


def supported_percentile(
    count: int, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Highest percentile of :data:`PERCENTILES` with at least
    ``min_beyond`` of ``count`` samples beyond it; ``None`` when even
    the median has fewer (the series is too short to summarize)."""
    best = None
    for pct in PERCENTILES:
        # In tenths of a percent, so that 0.1 % of 10 000 is exactly 10.
        if count * (1000 - round(pct * 10)) >= min_beyond * 1000:
            best = pct
    return best


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """What a run prints beside each metric: the median, the quartiles
    across windows and how many windows there were."""
    q1, mid, q3 = quartiles(values)
    return {
        "median": mid,
        "q1": q1,
        "q3": q3,
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }


def relative_difference(first: float, second: float) -> float:
    """Direction-free disagreement of two medians of the same code, as
    a share of the first; the A/A check compares it to half a bound."""
    if first == 0:
        return 0.0 if second == 0 else float("inf")
    return abs(second - first) / abs(first)
