#!/usr/bin/env python3
"""The repo's benchmark: one command, one workload per invocation.

    python3 benchmarks/e2e/run.py --workload dash_hot --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` drives the unmodified CLI server in a subprocess and
prints the end-to-end metrics; ``--trace 1`` is the separate traced run
that times calls into each layer and prints the per-layer metrics
(end-to-end metrics never come from a traced run). The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``. Any correctness breach exits non-zero with
``correct: false`` and no metrics. See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from typing import Dict, List

import harness

if not (harness.SRC_DIR / "repro" / "cli.py").is_file():
    sys.stderr.write(
        f"benchmark: no program to measure under {harness.SRC_DIR}\n"
    )
    sys.exit(2)
sys.path.insert(0, str(harness.SRC_DIR))

import gate  # noqa: E402
import metrics as e2e  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from lifetime import Lifetime, LifetimeResult, Ops, cold_spawn  # noqa: E402

#: A lifetime is measured again (at most MAX_RETRIES per run) when the
#: canaries at both its ends exceed the run's fastest canary by more
#: than this share, i.e. when the box was slow throughout. One slow end
#: is not enough: the canary of an idle box wanders by 15 %, and the
#: program's own teardown (memory going back to the host) slows the
#: next canary without having touched any window.
CANARY_TOLERANCE = 0.25
MAX_RETRIES = 1


class Run:
    """The lifetimes of one invocation and what they share."""

    def __init__(self, workload, scale, seed: int, seconds: float,
                 workdir, lifetimes: int) -> None:
        self.workload = workload
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.ops = Ops()
        self.fixture = workloads.ensure_fixture(scale)
        self.lifetimes = lifetimes
        self.budget_s = seconds / lifetimes
        self.build_seeds = workloads.build_seeds(seed, lifetimes)
        self.retried = 0
        self.last: Lifetime = None

    def one(self, index: int) -> LifetimeResult:
        self.last = Lifetime(
            self.workload, self.scale, self.fixture, self.workdir, index,
            self.seed, self.build_seeds[index], self.ops,
        )
        return self.last.run(self.budget_s, want_exact_dashboard=index == 0)

    def all(self) -> List[LifetimeResult]:
        results = [self.one(i) for i in range(self.lifetimes)]
        while self.retried < MAX_RETRIES:
            floor = min(ms for r in results for ms in r.canary_ms)
            disturbed = [
                i for i, r in enumerate(results)
                if min(r.canary_ms) > floor * (1.0 + CANARY_TOLERANCE)
            ]
            if not disturbed:
                break
            self.retried += 1
            print(f"lifetime {disturbed[0]} was disturbed (canary "
                  f"{min(results[disturbed[0]].canary_ms):.1f} ms against "
                  f"{floor:.1f} ms); measuring it again")
            results[disturbed[0]] = self.one(disturbed[0])
        return results


def emit(correct: bool, ops: Ops, values: Dict[str, float],
         units: Dict[str, str]) -> None:
    """The result line the driver reads: the last line of stdout."""
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, ops.attempted),
        "failed": ops.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in values.items()
        },
    }))


def refuse(run: Run, problems: List[str]) -> int:
    for problem in problems[:40]:
        print(f"INCORRECT: {problem}")
    emit(False, run.ops, {}, {})
    return 1


def untraced(run: Run, spec: Dict) -> int:
    started = time.perf_counter()
    results = run.all()
    cold_ms = [cold_spawn(run.last) for _ in range(run.scale.cold_spawns)]
    problems = gate.problems(run, results)
    series = e2e.end_to_end(run.workload, results, cold_ms)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if set(series) != set(units):
        problems.append(
            f"metrics {sorted(set(series) ^ set(units))} are not the ones "
            "BENCHMARK.json declares")
    print(f"ops_attempted {run.ops.attempted}")
    print(f"ops_failed {run.ops.failed}")
    if problems or run.ops.failed:
        return refuse(run, problems)
    values = {}
    for name in units:
        summary = stats.summarize(series[name])
        values[name] = summary["median"]
        print(f"{name} {summary['median']:.6g} {units[name]}  "
              f"[q1 {summary['q1']:.6g}, q3 {summary['q3']:.6g}, "
              f"n {summary['n']}]")
    canaries = [ms for r in results for ms in r.canary_ms]
    print(f"bench.canary_ms {min(canaries):.1f} .. {max(canaries):.1f}")
    print(f"bench.lifetimes_retried {run.retried}")
    print(f"fixture_s {run.fixture.seconds:.3f}")
    print(f"run_wall_s {time.perf_counter() - started:.3f}")
    emit(True, run.ops, values, units)
    return 0


def traced(run: Run, spec: Dict) -> int:
    import layers

    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    values, problems = layers.measure(run, list(units))
    print(f"ops_attempted {run.ops.attempted}")
    print(f"ops_failed {run.ops.failed}")
    if problems or run.ops.failed:
        return refuse(run, problems)
    for name in units:
        print(f"{name} {values[name]:.6g} {units[name]}")
    emit(True, run.ops, values, units)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds of measured windows (default: "
                        "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="functional check at 20k rows; its numbers "
                        "are not for comparison")
    args = parser.parse_args(argv)

    with open(harness.REPO_ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    seconds = float(spec["run_seconds"]) if args.seconds is None else args.seconds
    if args.smoke:
        seconds = min(seconds, 2.0)
        print("SMOKE RUN: numbers are not for comparison")
    print(f"workload {workload.name}: {workload.why}")
    print(f"environment {json.dumps(harness.fingerprint(args.seed))}")

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.sched_setaffinity(0, {harness.CLIENT_CPU})
    workdir = harness.BENCH_DIR / ".work" / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        # A traced run serves one lifetime (the outside of the
        # outside-in differencing) and spends the rest inside layers.
        run = Run(workload, scale, args.seed,
                  seconds / 3.0 if args.trace else seconds, workdir,
                  lifetimes=1 if args.trace else scale.lifetimes)
        try:
            return (traced if args.trace else untraced)(run, spec)
        except (harness.PhaseTimeout, OSError, RuntimeError) as exc:
            run.ops.fail(f"{type(exc).__name__}: {exc}")
            return refuse(run, [f"{type(exc).__name__}: {exc}"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
