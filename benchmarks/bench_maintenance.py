"""Maintenance benchmark: refresh throughput and drift-check latency
as the number of tracked value columns grows.

Standalone script (like bench_store / bench_warehouse) so CI can run it
in smoke mode and archive the JSON::

    PYTHONPATH=src python benchmarks/bench_maintenance.py --smoke \
        --out bench_maintenance.json

For each tracked-column count k (1, 2, 4, ... up to ``--max-columns``)
it builds one sample over a synthetic table with k numeric columns and
measures:

* ``build_seconds``      — the two-pass multi-column build
* ``refresh``            — streamed batch ingest through
                           ``SampleMaintainer.refresh`` (store
                           round-trip included), reported as batches/s
                           and rows/s
* ``drift_check``        — ``allocation_drift_by_column`` over all k
                           columns, checks/second
* ``meta_bytes``         — size of the persisted ``meta.json`` (the
                           per-column moment blocks grow with k)

The interesting curve is how refresh rows/s decays with k: the
streaming pass keeps one Welford state per (stratum, column), so the
per-row cost is O(k) on top of the reservoir work.

The ``ingest`` section takes one refresh apart on the served
benchmark's shape — a batch into an OpenAQ sample stratified by
(country, parameter), 10k rows into 100k retained over 192 strata at
full size — timing ``resume`` / ``observe_table`` / ``finalize`` and
``store.put`` of the result separately. Its ``--smoke`` gate is a
ratio, not a time: the sampler (resume + observe + finalize) must cost
no more than writing the same sample, i.e. ingest stays O(batch) and
the version write is what is left to shrink (a per-row Python path
costs ~3x the write).
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
import time

import numpy as np

from repro.core.streaming import StreamingCVOptSampler
from repro.datasets import generate_openaq
from repro.engine.table import Table
from repro.warehouse.maintenance import (
    SampleMaintainer,
    allocation_drift_by_column,
)
from repro.warehouse.store import SampleStore


def make_table(rows: int, num_columns: int, num_groups: int, seed: int) -> Table:
    """Synthetic grouped table with ``num_columns`` numeric columns of
    varying dispersion (so the drift math has real work to do)."""
    rng = np.random.default_rng(seed)
    data = {
        "g": [f"g{int(i)}" for i in rng.integers(0, num_groups, rows)]
    }
    for c in range(num_columns):
        mean = 10.0 * (c + 1)
        std = 1.0 + 3.0 * c
        data[f"v{c}"] = np.abs(rng.normal(mean, std, rows)) + 0.1
    return Table.from_pydict(data, name="Bench")


def _throughput(fn, repetitions: int) -> dict:
    start = time.perf_counter()
    for _ in range(repetitions):
        fn()
    elapsed = time.perf_counter() - start
    return {
        "seconds": elapsed,
        "repetitions": repetitions,
        "per_second": repetitions / elapsed if elapsed else float("inf"),
    }


def bench_columns(
    num_columns: int,
    rows: int,
    batch_rows: int,
    budget: int,
    refreshes: int,
    drift_checks: int,
    root: str,
) -> dict:
    shutil.rmtree(root, ignore_errors=True)
    table = make_table(rows + batch_rows * refreshes, num_columns, 24, seed=7)
    base = table.take(np.arange(rows))
    columns = [f"v{c}" for c in range(num_columns)]
    maintainer = SampleMaintainer(SampleStore(root))

    start = time.perf_counter()
    maintainer.build(
        "bench", base, group_by=["g"], value_columns=columns,
        budget=budget, seed=0,
    )
    build_seconds = time.perf_counter() - start

    offsets = iter(range(rows, rows + batch_rows * refreshes, batch_rows))

    def one_refresh():
        lo = next(offsets)
        batch = table.take(np.arange(lo, lo + batch_rows))
        maintainer.refresh("bench", batch, seed=lo)

    refresh = _throughput(one_refresh, refreshes)
    refresh["rows_per_second"] = refresh["per_second"] * batch_rows

    sample = maintainer.store.get("bench").sample
    drift = _throughput(
        lambda: allocation_drift_by_column(sample, columns), drift_checks
    )

    stored = maintainer.store.get("bench")
    meta_bytes = (stored.path / "meta.json").stat().st_size
    return {
        "columns": num_columns,
        "strata": sample.allocation.num_strata,
        "build_seconds": build_seconds,
        "refresh": refresh,
        "drift_check": drift,
        "meta_bytes": meta_bytes,
    }


def bench_ingest(
    rows: int, batch_rows: int, budget: int, repetitions: int, root: str
) -> dict:
    """One refresh, taken apart: median milliseconds per step."""
    columns = ["value", "latitude"]
    table = generate_openaq(num_rows=rows + batch_rows, seed=7)
    batch = table.take(np.arange(rows, rows + batch_rows))
    store = SampleStore(root)
    SampleMaintainer(store).build(
        "ingest", table.take(np.arange(rows)),
        group_by=["country", "parameter"], value_columns=columns,
        budget=budget, seed=0,
    )
    stored = store.get("ingest")
    steps = {"resume": [], "observe_table": [], "finalize": [], "put": []}
    for seed in range(repetitions):
        marks = [time.perf_counter()]
        sampler = StreamingCVOptSampler.resume(
            stored.sample, columns, seed=seed
        )
        marks.append(time.perf_counter())
        sampler.observe_table(batch)
        marks.append(time.perf_counter())
        sample = sampler.finalize()
        marks.append(time.perf_counter())
        store.put("ingest", sample, lineage=stored.lineage)
        marks.append(time.perf_counter())
        for step, lo, hi in zip(steps, marks, marks[1:]):
            steps[step].append((hi - lo) * 1000.0)
    out = {f"{step}_ms": float(np.median(ms)) for step, ms in steps.items()}
    out["sampler_ms"] = (
        out["resume_ms"] + out["observe_table_ms"] + out["finalize_ms"]
    )
    out.update(
        batch_rows=batch_rows,
        sample_rows=stored.sample.num_rows,
        strata=stored.sample.allocation.num_strata,
        replaced=sampler.replaced,
        sampler_to_put_ratio=out["sampler_ms"] / out["put_ms"],
    )
    return out


def run(
    rows: int,
    batch_rows: int,
    budget: int,
    refreshes: int,
    drift_checks: int,
    max_columns: int,
    root: str,
) -> dict:
    counts = []
    k = 1
    while k <= max_columns:
        counts.append(k)
        k *= 2
    results = {
        "config": {
            "rows": rows,
            "batch_rows": batch_rows,
            "budget": budget,
            "refreshes": refreshes,
            "drift_checks": drift_checks,
            "column_counts": counts,
        },
        "runs": [],
    }
    for num_columns in counts:
        results["runs"].append(
            bench_columns(
                num_columns, rows, batch_rows, budget, refreshes,
                drift_checks, f"{root}/k{num_columns}",
            )
        )
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=100_000)
    parser.add_argument("--batch-rows", type=int, default=10_000)
    parser.add_argument("--budget", type=int, default=5_000)
    parser.add_argument("--refreshes", type=int, default=4)
    parser.add_argument("--drift-checks", type=int, default=50)
    parser.add_argument("--max-columns", type=int, default=8)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI (overrides --rows/--budget/...)",
    )
    parser.add_argument("--out", default=None, help="write JSON here")
    args = parser.parse_args()
    if args.smoke:
        args.rows, args.batch_rows, args.budget = 8_000, 1_000, 600
        args.refreshes, args.drift_checks = 2, 10
        args.max_columns = 4
    # ingest section: the sample keeps 10% of the base, the batch is 1%
    ingest_rows = 100_000 if args.smoke else 1_000_000

    with tempfile.TemporaryDirectory(prefix="bench-maintenance-") as root:
        results = run(
            args.rows, args.batch_rows, args.budget, args.refreshes,
            args.drift_checks, args.max_columns, root,
        )
        results["ingest"] = bench_ingest(
            ingest_rows, ingest_rows // 100, ingest_rows // 10, 5,
            f"{root}/ingest",
        )

    for entry in results["runs"]:
        print(
            f"columns {entry['columns']:>3}: "
            f"build {entry['build_seconds']:6.2f}s  "
            f"refresh {entry['refresh']['rows_per_second']:9.0f} rows/s  "
            f"drift {entry['drift_check']['per_second']:8.1f}/s  "
            f"meta {entry['meta_bytes'] / 1024:7.1f} KiB"
        )
    ingest = results["ingest"]
    print(
        f"ingest {ingest['batch_rows']} rows into {ingest['sample_rows']} "
        f"({ingest['strata']} strata): resume {ingest['resume_ms']:.1f}  "
        f"observe {ingest['observe_table_ms']:.1f}  "
        f"finalize {ingest['finalize_ms']:.1f}  put {ingest['put_ms']:.1f} ms"
        f"  -> sampler/put {ingest['sampler_to_put_ratio']:.2f}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=2)
        print(f"wrote {args.out}")
    if args.smoke and ingest["sampler_to_put_ratio"] > 1.0:
        print("FAIL: the sampler costs more than writing its sample")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
