#!/usr/bin/env python3
"""A/A check: does the benchmark agree with itself?

Runs two sets of N passes of the same checkout (a pass is every chosen
workload once, each pass with another seed; both sets use the same
seeds) and prints, per workload x end-to-end metric:

* the spread of each set: the distance between the first and third
  quartile of its N values as a share of their median, which must stay
  within the metric's bound (``setup_s`` excepted);
* the relative difference of the two sets' medians, which must stay
  within **half** the bound.

    python3 benchmarks/e2e/aa_check.py --runs 3 --workloads dash_hot,lifecycle

Writes the values and the verdicts to ``--out`` (default
``AA_seed.json`` beside this file: the first row of the trajectory).
Exits non-zero when any pair fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
from typing import Dict, List

import harness
import stats


def one_run(spec: Dict, workload: str, seed: int) -> Dict[str, float]:
    done = subprocess.run(
        [
            *spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", "0",
        ],
        cwd=harness.REPO_ROOT, capture_output=True, text=True, timeout=180,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n"
            + "\n".join(lines[-15:]) + done.stderr[-2000:]
        )
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()}


def one_set(spec: Dict, names: List[str], runs: int, label: str) -> Dict[str, Dict[str, List[float]]]:
    values: Dict[str, Dict[str, List[float]]] = {name: {} for name in names}
    for seed in range(1, runs + 1):
        for name in names:
            metrics = one_run(spec, name, seed)
            for metric, value in metrics.items():
                values[name].setdefault(metric, []).append(value)
            print(f"set {label} seed {seed} {name}: "
                  f"p50 {metrics['query_p50_ms']:.4g} ms", flush=True)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="passes per set")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--out", default=str(harness.BENCH_DIR / "AA_seed.json"))
    args = parser.parse_args(argv)

    with open(harness.REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        chosen = args.workloads.split(",")
        unknown = sorted(set(chosen) - set(names))
        if unknown:
            parser.error(f"unknown workloads {unknown}")
        names = chosen

    sets = [one_set(spec, names, args.runs, label) for label in ("A", "B")]
    return report(spec, names, sets, args.runs, args.out)


def report(spec: Dict, names: List[str], sets, runs: int, out: str) -> int:
    """Print and write the verdict on two sets of values."""
    rows, failures = [], 0
    print(f"{'workload/metric':<42}{'median A':>12}{'median B':>12}"
          f"{'spread A':>10}{'spread B':>10}{'A-B':>9}{'bound':>7}")
    for name in names:
        for metric in spec["end_to_end"]:
            first = sets[0][name][metric["name"]]
            second = sets[1][name][metric["name"]]
            medians = [stats.median(first), stats.median(second)]
            spreads = [stats.spread(first), stats.spread(second)]
            difference = stats.relative_difference(*medians)
            steady = metric["name"] == "setup_s" or max(spreads) <= metric["bound"]
            agrees = difference <= metric["bound"] / 2.0
            failures += not (steady and agrees)
            rows.append({
                "workload": name, "metric": metric["name"],
                "unit": metric["unit"], "bound": metric["bound"],
                "median": medians, "spread": spreads,
                "difference": difference, "ok": steady and agrees,
            })
            print(f"{name + '/' + metric['name']:<42}{medians[0]:>12.5g}"
                  f"{medians[1]:>12.5g}{spreads[0]:>10.2%}{spreads[1]:>10.2%}"
                  f"{difference:>9.2%}{metric['bound']:>7.0%}"
                  + ("" if steady and agrees else "  FAIL"))
    pathlib.Path(out).write_text(json.dumps({
        "environment": harness.fingerprint(seed=0),
        "runs_per_set": runs,
        "run_seconds": spec["run_seconds"],
        "rows": rows,
        "values": {"A": sets[0], "B": sets[1]},
    }, indent=1) + "\n")
    print(f"{failures} of {len(rows)} pairs failed; wrote {out}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
