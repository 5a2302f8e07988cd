"""The correctness gate of a run: every reason its numbers must not be
trusted. A run with any such reason prints no metrics and exits
non-zero."""

from __future__ import annotations

from typing import List, Sequence

import checks
import metrics
import workloads
from lifetime import LifetimeResult


def problems(run, results: Sequence[LifetimeResult]) -> List[str]:
    workload, scale = run.workload, run.scale
    found = [f"failed operation: {reason}" for reason in run.ops.reasons]
    first = results[0]
    oracle = checks.Oracle(
        run.fixture, scale, first.build_seed, run.workdir,
        grown=workload.ingest,
    )
    served = first.dashboard_before if workload.ingest else first.dashboard
    if len(served) != len(workloads.DASHBOARD):
        found.append("a dashboard query went unanswered")
    found += checks.compare(served.items(), oracle.approximate, "dashboard")
    found += checks.compare(first.sampled, oracle.approximate, "ad-hoc")
    found += checks.compare(first.exact_sampled, oracle.exact, "forced exact")
    if workload.traffic == "adhoc" and not first.sampled:
        found.append("no ad-hoc answer reached the oracle")
    if not first.exact_sampled:
        found.append("no forced-exact answer reached the oracle")

    mean_error, worst_error = metrics.accuracy(results)
    if scale.error_gate is not None:
        mean_limit, group_limit = scale.error_gate
        if not mean_error <= mean_limit:
            found.append(f"mean group error {mean_error:.4f} > {mean_limit}")
        if not worst_error <= group_limit:
            found.append(f"max group error {worst_error:.4f} > {group_limit}")

    for index, result in enumerate(results):
        where = f"lifetime {index}"
        serving = result.stats_after.get("serving", {})
        rejected = (serving.get("rejected_overload", 0)
                    + serving.get("rejected_contract", 0))
        if rejected:
            found.append(f"{where}: {rejected} requests rejected")
        if result.shard_fallbacks:
            found.append(f"{where}: {result.shard_fallbacks:.0f} shard fallbacks")
        if len(result.exact_ms) != scale.exact_queries:
            found.append(f"{where}: forced-exact queries went missing")
        if workload.ingest:
            found += _ingest_problems(where, result, scale)
            continue
        if not result.latency_windows or not result.qps:
            found.append(f"{where}: no complete window")
        # The workload must exercise what its name says it does.
        ratio = metrics.cache_hit_ratio(result)
        expected = 1.0 if workload.traffic == "dash" else 0.0
        if ratio != expected:
            found.append(
                f"{where}: answer-cache hit ratio {ratio:.4f}, the "
                f"workload is built for {expected:.0f}")
    return found


def _ingest_problems(where: str, result: LifetimeResult, scale) -> List[str]:
    found = []
    grown = scale.base_rows + scale.batches * scale.batch_rows
    if len(result.cycles) != scale.batches:
        found.append(f"{where}: {len(result.cycles)} batch cycles")
    if any(not c.latencies_ms for c in result.cycles):
        found.append(f"{where}: a batch cycle saw no query")
    versions = {s["name"]: s["version"] for s in result.samples_after}
    want = f"v{1 + scale.batches:06d}"
    if versions.get(workloads.SAMPLE) != want:
        found.append(f"{where}: /samples shows {versions}, not {want}")
    rows = result.stats_after.get("tables", {}).get(workloads.TABLE)
    if rows != grown:
        found.append(f"{where}: base has {rows} rows, not {grown}")
    if result.failed_dir_entries:
        found.append(f"{where}: failed/ is not empty")
    count = result.dashboard.get(workloads.DASHBOARD[-1])
    if count is None or abs(count["rows"][0][0] - grown) > 0.02 * grown:
        found.append(f"{where}: approximate COUNT(*) is off the grown table")
    return found
