"""Engine microbenchmarks: the substrate's own throughput.

Not a paper experiment — these keep the pure-python engine honest
(vectorized group-by and sampling are what make the repro runnable) and
guard against performance regressions.

Besides the pytest-benchmark suite, this file runs standalone for CI
(same shape as ``bench_warehouse.py``)::

    PYTHONPATH=src python benchmarks/bench_engine.py --smoke \
        --out bench_engine.json

The script mode times the factorize kernels (hash vs ``np.unique``), a
4-key grouping through the combined-code path against the lexsort
path, the group-code cache (cold factorize vs warm hit) and the fused
filter + group + aggregate operator against the filter-then-aggregate
reference. With ``--smoke`` it exits non-zero when the warm cached path
is less than 2x faster than cold factorize, or when the fused operator
is slower than the reference at any measured point (beyond a timing-
noise allowance: when nearly every row of an un-stamped table survives,
both sides gather and factorize the same rows and tie by construction).
"""

import argparse
import json
import statistics
import time

import numpy as np

import pytest

from repro.aqp.session import AQPSession
from repro.core.cvopt import CVOptSampler
from repro.core.spec import GroupByQuerySpec
from repro.engine.expr import evaluate, evaluate_predicate
from repro.engine.groupby import (
    compute_group_keys,
    compute_group_keys_sorted,
    factorize_hash,
    factorize_sort,
    group_by_aggregate,
)
from repro.engine.groupcache import default_group_code_cache
from repro.engine.reservoir import stratified_sample_indices
from repro.engine.sql.executor import execute_sql, plan_query
from repro.engine.sql.parser import parse_query
from repro.engine.statistics import collect_strata_statistics
from repro.engine.table import Table


@pytest.mark.benchmark(group="engine")
def test_groupby_throughput(benchmark, openaq):
    def run():
        return execute_sql(
            "SELECT country, parameter, AVG(value) a, COUNT(*) c "
            "FROM OpenAQ GROUP BY country, parameter",
            {"OpenAQ": openaq},
        )

    result = benchmark(run)
    assert result.num_rows > 0
    benchmark.extra_info["rows"] = openaq.num_rows


@pytest.mark.benchmark(group="engine")
def test_cube_throughput(benchmark, openaq):
    def run():
        return execute_sql(
            "SELECT country, parameter, SUM(value) s FROM OpenAQ "
            "GROUP BY country, parameter WITH CUBE",
            {"OpenAQ": openaq},
        )

    result = benchmark(run)
    assert result.num_rows > 0


@pytest.mark.benchmark(group="engine")
def test_filter_join_cte_pipeline(benchmark, openaq):
    from repro.queries import get_query

    sql = get_query("AQ1").sql

    def run():
        return execute_sql(sql, {"OpenAQ": openaq})

    result = benchmark(run)
    assert result.num_rows > 0


@pytest.mark.benchmark(group="engine")
def test_statistics_pass(benchmark, openaq):
    def run():
        return collect_strata_statistics(
            openaq, ["country", "parameter"], ["value", "latitude"]
        )

    stats = benchmark(run)
    assert stats.num_strata > 0


@pytest.mark.benchmark(group="engine")
def test_stratified_draw(benchmark, openaq):
    keys = compute_group_keys(openaq, ["country", "parameter"])
    sizes = np.minimum(
        10, np.bincount(keys.gids, minlength=keys.num_groups)
    )
    rng = np.random.default_rng(0)

    def run():
        return stratified_sample_indices(keys.gids, sizes, rng)

    out = benchmark(run)
    assert len(out) > 0


@pytest.mark.benchmark(group="planner")
def test_planner_overhead(benchmark, openaq):
    """Parse + lower + rewrite + compile, without execution.

    extra_info records the share of one full execution the planning
    path costs — it should be a small fraction.
    """
    sql = (
        "SELECT country, parameter, AVG(value) a, COUNT(*) c "
        "FROM OpenAQ GROUP BY country, parameter"
    )

    def plan():
        return plan_query(parse_query(sql), weight_column="__weight__")

    compiled = benchmark(plan)
    start = time.perf_counter()
    result = compiled.run({"OpenAQ": openaq})
    execute_seconds = time.perf_counter() - start
    assert result.num_rows > 0
    benchmark.extra_info["execute_seconds"] = execute_seconds


@pytest.mark.benchmark(group="planner")
def test_plan_cache_hit_speedup(benchmark, openaq):
    """AQP session answering a repeated query shape from the plan cache.

    The benchmark times the cache-hit path; extra_info records cold
    (cache cleared each time: route + lower + rewrite + compile) vs
    cached timings and their ratio.
    """
    session = AQPSession({"OpenAQ": openaq})
    sampler = CVOptSampler(
        GroupByQuerySpec.single("value", by=("country", "parameter"))
    )
    session.register_sample(
        "aq3", sampler.sample_rate(openaq, 0.01, seed=0), "OpenAQ"
    )
    sql = (
        "SELECT country, AVG(value) a FROM OpenAQ "
        "WHERE value > 10 GROUP BY country"
    )

    cold = []
    for _ in range(7):
        session.clear_plan_cache()
        start = time.perf_counter()
        result = session.query(sql)
        cold.append(time.perf_counter() - start)
        assert result.approximate
    cold_seconds = float(np.median(cold))

    session.query(sql)  # prime the cache

    def cached():
        return session.query(sql)

    result = benchmark(cached)
    assert result.plan_cached
    assert session.plan_cache_hits > 0

    warm = []
    for _ in range(7):
        start = time.perf_counter()
        session.query(sql)
        warm.append(time.perf_counter() - start)
    warm_seconds = float(np.median(warm))

    benchmark.extra_info["cold_plan_seconds"] = cold_seconds
    benchmark.extra_info["cached_plan_seconds"] = warm_seconds
    benchmark.extra_info["speedup"] = cold_seconds / max(warm_seconds, 1e-12)
    # Generous slack: both paths share the (dominant) execution cost,
    # so a scheduler blip must not fail the bench suite.
    assert warm_seconds <= cold_seconds * 1.5


@pytest.mark.benchmark(group="engine")
def test_cvopt_end_to_end_build(benchmark, openaq):
    sampler = CVOptSampler(
        GroupByQuerySpec.single("value", by=("country", "parameter"))
    )

    def run():
        return sampler.sample_rate(openaq, 0.01, seed=0)

    sample = benchmark(run)
    assert sample.num_rows > 0


@pytest.mark.benchmark(group="engine")
def test_factorize_kernel_speedup(benchmark, openaq):
    """Hash (direct-addressing) kernel vs the np.unique sort path on a
    high-cardinality single integer key. extra_info records the sort
    timing and the speedup ratio."""
    rng = np.random.default_rng(0)
    n = openaq.num_rows
    arr = rng.integers(0, n // 2, n)

    codes, first = benchmark(lambda: factorize_hash(arr))
    hash_times, sort_times = [], []
    for _ in range(3):
        start = time.perf_counter()
        factorize_hash(arr)
        hash_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        sort_codes, sort_first = factorize_sort(arr)
        sort_times.append(time.perf_counter() - start)
    assert np.array_equal(codes, sort_codes)
    assert np.array_equal(first, sort_first)
    hash_seconds = float(np.median(hash_times))
    sort_seconds = float(np.median(sort_times))
    benchmark.extra_info["rows"] = n
    benchmark.extra_info["sort_seconds"] = sort_seconds
    benchmark.extra_info["speedup_vs_unique"] = sort_seconds / max(
        hash_seconds, 1e-12
    )


@pytest.mark.benchmark(group="engine")
def test_groupcode_cache_hit(benchmark, openaq):
    """Warm group-code cache hit vs a cold factorize of the same keys.

    The benchmark times the hit path (a dict lookup); extra_info
    records the cold timing and the speedup — the end-to-end win every
    repeated query shape gets on an immutable sample version.
    """
    cache = default_group_code_cache()
    openaq.cache_token = ("bench", "openaq", "v1")
    try:
        cold = []
        for _ in range(5):
            cache.invalidate()
            start = time.perf_counter()
            compute_group_keys(openaq, ["country", "parameter"])
            cold.append(time.perf_counter() - start)
        cold_seconds = float(np.median(cold))

        keys = benchmark(
            lambda: compute_group_keys(openaq, ["country", "parameter"])
        )
        assert keys.num_groups > 0
        counters = cache.counters()
        assert counters["hits"] > 0
        warm = []
        for _ in range(7):
            start = time.perf_counter()
            compute_group_keys(openaq, ["country", "parameter"])
            warm.append(time.perf_counter() - start)
        warm_seconds = float(np.median(warm))
        benchmark.extra_info["cold_seconds"] = cold_seconds
        benchmark.extra_info["warm_seconds"] = warm_seconds
        benchmark.extra_info["speedup"] = cold_seconds / max(
            warm_seconds, 1e-12
        )
        assert warm_seconds < cold_seconds
    finally:
        openaq.cache_token = None
        cache.invalidate()


# ----------------------------------------------------------------------
# script mode (CI smoke + artifact)
# ----------------------------------------------------------------------
def _timed(fn, repeats):
    """Median seconds over ``repeats`` calls (first result returned)."""
    result = fn()
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return result, float(statistics.median(samples))


def run(rows: int, repeats: int) -> dict:
    rng = np.random.default_rng(0)
    results = {"config": {"rows": rows, "repeats": repeats}}

    # Phase 1: factorize kernels on a high-cardinality single int key.
    arr = rng.integers(0, rows // 2, rows)
    (hash_out, hash_seconds) = _timed(lambda: factorize_hash(arr), repeats)
    (sort_out, sort_seconds) = _timed(lambda: factorize_sort(arr), repeats)
    assert np.array_equal(hash_out[0], sort_out[0])
    distinct = len(hash_out[1])
    results["factorize"] = {
        "rows": rows,
        "distinct": distinct,
        "hash_seconds": hash_seconds,
        "unique_seconds": sort_seconds,
        "speedup_vs_unique": sort_seconds / max(hash_seconds, 1e-12),
    }

    # Phase 2: group-code cache — cold factorize vs warm hit on an
    # immutable (tagged) table, the serving hot path.
    table = Table.from_pydict(
        {
            "g": rng.integers(0, 500, rows),
            "h": rng.integers(0, 40, rows),
        }
    )
    table.cache_token = ("bench", "sample", "v1")
    cache = default_group_code_cache()
    try:
        def cold():
            cache.invalidate()
            return compute_group_keys(table, ("g", "h"))

        _, cold_seconds = _timed(cold, repeats)
        compute_group_keys(table, ("g", "h"))  # prime
        _, warm_seconds = _timed(
            lambda: compute_group_keys(table, ("g", "h")), repeats
        )
        counters = cache.counters()
    finally:
        table.cache_token = None
        cache.invalidate()
    results["groupcode_cache"] = {
        "cold_seconds": cold_seconds,
        "warm_seconds": warm_seconds,
        "speedup": cold_seconds / max(warm_seconds, 1e-12),
        "hits": counters["hits"],
        "misses": counters["misses"],
    }

    # Phase 3: a 4-key GROUP BY — combined codes (the only grouping
    # entry; cacheable) against lexsorting the per-column codes.
    wide = Table.from_pydict(
        {
            "a": rng.integers(0, 40, rows),
            "b": rng.integers(0, 12, rows),
            "c": rng.integers(0, 6, rows),
            "d": rng.integers(0, 3, rows),
        }
    )
    by = ("a", "b", "c", "d")
    hashed, hash4_seconds = _timed(
        lambda: compute_group_keys(wide, by), repeats
    )
    lexsorted, sort4_seconds = _timed(
        lambda: compute_group_keys_sorted(wide, by), repeats
    )
    assert np.array_equal(hashed.gids, lexsorted.gids)
    results["four_key_grouping"] = {
        "rows": rows,
        "groups": hashed.num_groups,
        "combined_seconds": hash4_seconds,
        "lexsort_seconds": sort4_seconds,
        "speedup_vs_lexsort": sort4_seconds / max(hash4_seconds, 1e-12),
    }

    results["filtered_aggregate"] = _filtered_aggregate(rng, repeats)
    return results


#: ``(label, rows, token-stamped?)``: a served sample version (group
#: codes come from the cache) and a base table on the exact path (key
#: columns are gathered and factorized).
_FILTERED_INPUTS = (("sample", 100_000, True), ("base", 1_000_000, False))
_SELECTIVITIES = (0.01, 0.5, 0.99)
#: The gate's floor on reference / fused: 1.0 less run-to-run noise at
#: the one point where the two sides do the same work (base, 0.99).
_FUSED_MIN_SPEEDUP = 0.9


def _filtered_aggregate(rng, repeats: int) -> list:
    """Fused operator vs ``Table.filter`` -> ``group_by_aggregate``."""
    cache = default_group_code_cache()
    points = []
    for label, rows, stamped in _FILTERED_INPUTS:
        table = Table.from_pydict(
            {
                "g": rng.integers(0, 40, rows),
                "h": rng.integers(0, 8, rows),
                "v": rng.normal(10.0, 3.0, rows),
                "u": rng.random(rows),
                "__weight__": rng.uniform(1.0, 20.0, rows),
            },
            name="T",
        )
        if stamped:
            table.cache_token = ("bench", "filtered", label)
        try:
            for selectivity in _SELECTIVITIES:
                query = parse_query(
                    "SELECT g, h, AVG(v) a, SUM(v) s, COUNT(*) c FROM T "
                    f"WHERE u < {selectivity} GROUP BY g, h"
                )
                plan = plan_query(query, weight_column="__weight__")
                value = query.items[2].expr.arg  # the aggregated column

                def reference():
                    kept = table.filter(
                        evaluate_predicate(query.where, table)
                    )
                    v = evaluate(value, kept)
                    return group_by_aggregate(
                        kept,
                        ("g", "h"),
                        [("a", "AVG", v), ("s", "SUM", v), ("c", "COUNT", None)],
                        kept.column("__weight__").data,
                    )

                want, reference_seconds = _timed(reference, repeats)
                got, fused_seconds = _timed(
                    lambda: plan.run({"T": table}), repeats
                )
                for name in ("a", "s", "c"):
                    assert (
                        got.column(name).data.tobytes()
                        == want.column(name).data.tobytes()
                    )
                points.append(
                    {
                        "input": label,
                        "rows": rows,
                        "selectivity": selectivity,
                        "fused_seconds": fused_seconds,
                        "reference_seconds": reference_seconds,
                        "speedup": reference_seconds / max(fused_seconds, 1e-12),
                    }
                )
        finally:
            cache.invalidate()
    return points


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="small sizes for CI and enforce the 2x cached-path gate",
    )
    parser.add_argument("--rows", type=int, default=None)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--min-cache-speedup", type=float, default=2.0,
        help="fail when warm cache hits are not at least this much "
        "faster than cold factorize (enforced with --smoke)",
    )
    parser.add_argument("--out", default="bench_engine.json")
    args = parser.parse_args(argv)

    rows = args.rows or (300_000 if args.smoke else 2_000_000)
    results = run(rows=rows, repeats=args.repeats)
    fz, gc = results["factorize"], results["groupcode_cache"]
    wide = results["four_key_grouping"]
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2)

    print(f"factorize  {rows} rows, {fz['distinct']} distinct: "
          f"hash {fz['hash_seconds'] * 1e3:.1f}ms vs "
          f"np.unique {fz['unique_seconds'] * 1e3:.1f}ms "
          f"({fz['speedup_vs_unique']:.1f}x)")
    print(f"groupcache cold {gc['cold_seconds'] * 1e3:.2f}ms vs "
          f"warm hit {gc['warm_seconds'] * 1e6:.0f}us "
          f"({gc['speedup']:.0f}x, hits={gc['hits']})")
    print(f"4-key      {wide['groups']} groups: combined codes "
          f"{wide['combined_seconds'] * 1e3:.1f}ms vs lexsort "
          f"{wide['lexsort_seconds'] * 1e3:.1f}ms "
          f"({wide['speedup_vs_lexsort']:.1f}x)")
    for point in results["filtered_aggregate"]:
        print(f"filtered   {point['input']:<6} {point['rows']:>7} rows "
              f"sel {point['selectivity']:<4}: fused "
              f"{point['fused_seconds'] * 1e3:.2f}ms vs reference "
              f"{point['reference_seconds'] * 1e3:.2f}ms "
              f"({point['speedup']:.1f}x)")
    print(f"wrote {args.out}")

    failed = False
    if args.smoke and gc["speedup"] < args.min_cache_speedup:
        print(f"FAIL: cached-path speedup {gc['speedup']:.2f}x below "
              f"the {args.min_cache_speedup:.1f}x gate")
        failed = True
    for point in results["filtered_aggregate"]:
        if args.smoke and point["speedup"] < _FUSED_MIN_SPEEDUP:
            print(f"FAIL: fused filter+aggregate slower than the reference "
                  f"on {point['input']} at selectivity "
                  f"{point['selectivity']} ({point['speedup']:.2f}x)")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
