"""From the lifetimes of a run to its end-to-end metrics.

A metric is the median over all windows of all lifetimes of the
per-window statistic; :func:`end_to_end` returns each metric as the
series that median is taken over, so a run can also print the quartiles
across windows and the window count.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import checks
import stats
from lifetime import LifetimeResult

#: A read slower than this during ingest counts as stalled.
STALL_MS = 5.0


def _p95(latencies: Sequence[float]) -> float:
    """p95, or the highest percentile below it that still has ten
    samples beyond it."""
    supported = stats.supported_percentile(len(latencies)) or 50.0
    return stats.percentile(latencies, min(95.0, supported))


def window_series(workload, results: Sequence[LifetimeResult]) -> Dict[str, List[float]]:
    """Per-window values of the four load metrics, all lifetimes.

    On ``lifecycle`` a window is a batch cycle: latency and CPU come
    from the one-connection cycles, throughput from the two-connection
    cycles, and p95 from each lifetime's pooled one-connection
    latencies (one cycle is too short to have ten samples beyond it).
    """
    if workload.ingest:
        single = [c for r in results for c in r.cycles
                  if c.connections == 1 and c.latencies_ms]
        double = [c for r in results for c in r.cycles
                  if c.connections == 2 and c.completions]
        pooled = [
            [ms for c in r.cycles if c.connections == 1
             for ms in c.latencies_ms]
            for r in results
        ]
        return {
            "query_p50_ms": [stats.median(c.latencies_ms) for c in single],
            "query_p95_ms": [_p95(p) for p in pooled if p],
            "query_qps": [c.completions / c.seconds for c in double],
            "server_cpu_ms_per_query": [
                c.cpu_ms / c.completions for c in single
            ],
        }
    windows = [w for r in results for w in r.latency_windows]
    return {
        "query_p50_ms": [stats.median(w) for w in windows],
        "query_p95_ms": [_p95(w) for w in windows],
        "query_qps": [q for r in results for q in r.qps],
        "server_cpu_ms_per_query": [
            c for r in results for c in r.cpu_ms_per_query
        ],
    }


def accuracy(results: Sequence[LifetimeResult]) -> Tuple[float, float]:
    """Mean over the lifetimes' sample draws of the mean group error,
    and the worst group error of any draw."""
    exact = results[0].dashboard_exact
    means, worst = [], 0.0
    for result in results:
        errors = checks.dashboard_errors(result.dashboard, exact)
        if errors:
            means.append(sum(errors) / len(errors))
            worst = max(worst, max(errors))
    if not means:
        return float("nan"), float("nan")
    return sum(means) / len(means), worst


def end_to_end(workload, results: Sequence[LifetimeResult],
               cold_ms: Sequence[float]) -> Dict[str, List[float]]:
    """Every end-to-end metric as the series its median is taken over."""
    series = window_series(workload, results)
    series["setup_s"] = [r.setup_s for r in results]
    series["cold_first_answer_ms"] = [r.cold_ms for r in results] + list(cold_ms)
    series["exact_p50_ms"] = [ms for r in results for ms in r.exact_ms]
    series["server_peak_rss_mb"] = [r.peak_rss_mib for r in results]
    series["store_bytes_per_row"] = [r.store_bytes_per_row for r in results]
    series["mean_group_rel_err"] = [accuracy(results)[0]]
    return series


def ingest_figures(results: Sequence[LifetimeResult], batch_rows: int) -> Dict[str, float]:
    """What ``lifecycle`` adds: how fast batches land and what the
    reads pay meanwhile (medians over all batch cycles)."""
    cycles = [c for r in results for c in r.cycles]
    reads = [c for c in cycles if c.latencies_ms]
    if not cycles or not reads:
        return {}
    return {
        "ingest_rows_per_s": batch_rows / stats.median(
            [c.seconds for c in cycles]),
        "ingest_stall_max_ms": stats.median(
            [max(c.latencies_ms) for c in reads]),
        "ingest_stall_share": stats.median([
            sum(ms for ms in c.latencies_ms if ms > STALL_MS)
            / sum(c.latencies_ms) for c in reads
        ]),
    }


def _delta(after: Dict, before: Dict, block: str, key: str) -> int:
    return after.get(block, {}).get(key, 0) - before.get(block, {}).get(key, 0)


def cache_hit_ratio(result: LifetimeResult, block: str = "answer_cache") -> float:
    """Hits over lookups of a ``/stats`` cache block across the windows
    (for the group-code cache, summed over the front and its shard
    workers); 0 when the block was never consulted."""
    before, after = result.stats_before, result.stats_after
    hits = _delta(after, before, block, "hits")
    misses = _delta(after, before, block, "misses")
    if block == "groupcode_cache":
        for now, then in zip(after.get("shards", ()), before.get("shards", ())):
            hits += _delta(now, then, block, "hits")
            misses += _delta(now, then, block, "misses")
    return hits / (hits + misses) if hits + misses else 0.0
