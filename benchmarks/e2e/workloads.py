"""The four served workloads, their traffic and their fixture.

The fixture is fixed (one synthetic OpenAQ table, the same for every
seed, cut into a base and four append batches); ``--seed`` drives what
the program is asked to do with it: the sample draws (``warehouse build
--seed``) and every query literal. The program sees only these
generated inputs.
"""

from __future__ import annotations

import os
import pathlib
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from harness import BENCH_DIR

TABLE = "OpenAQ"
SAMPLE = "s"
GROUP_BY = "country,parameter"
VALUE_COLUMNS = "value,latitude"
GENERATOR_SEED = 7
NUM_COUNTRIES = 38


@dataclass(frozen=True)
class Scale:
    """Fixture and traffic sizes. ``FULL`` is the benchmark; ``SMOKE``
    is a functional check whose numbers are not for comparison."""

    base_rows: int
    budget: int
    batch_rows: int
    batches: int
    lifetimes: int
    cold_spawns: int
    exact_queries: int  # forced-exact queries per lifetime
    hot_window: Tuple[int, int]  # requests per (latency, throughput/conn)
    adhoc_window: Tuple[int, int]
    warmup: int
    #: Gate on the accuracy metrics ``(mean, max)`` group error; the
    #: smoke sample (10 rows a stratum) is too small to promise any.
    error_gate: Optional[Tuple[float, float]]


FULL = Scale(
    base_rows=1_000_000, budget=100_000, batch_rows=10_000, batches=4,
    lifetimes=3, cold_spawns=3, exact_queries=5,
    hot_window=(1500, 1000), adhoc_window=(200, 100), warmup=48,
    error_gate=(0.05, 0.5),
)
SMOKE = Scale(
    base_rows=20_000, budget=2_000, batch_rows=1_000, batches=2,
    lifetimes=1, cold_spawns=1, exact_queries=2,
    hot_window=(200, 100), adhoc_window=(60, 30), warmup=16,
    error_gate=None,
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str
    shards: int
    traffic: str  # "dash" (8 fixed queries) or "adhoc" (unique literals)
    ingest: bool  # batches are dropped while the queries run


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dash_hot",
            "8 fixed dashboard queries cycled: answer-cache hits, so the "
            "HTTP front, the async hop and the contract path do all the "
            "work and the engine none",
            backend="npz", shards=1, traffic="dash", ingest=False,
        ),
        Workload(
            "adhoc_miss",
            "5 query shapes with a unique literal each: the answer cache "
            "never hits, so the filter and aggregate kernels over the "
            "100k-row sample dominate",
            backend="mmap", shards=1, traffic="adhoc", ingest=False,
        ),
        Workload(
            "adhoc_shard2",
            "the adhoc_miss requests on 2 shard worker processes: adds "
            "pipe RPC, pickling and the partials merge; the gap to "
            "adhoc_miss is the cost of sharding",
            backend="mmap", shards=2, traffic="adhoc", ingest=False,
        ),
        Workload(
            "lifecycle",
            "the dashboard cycle while 4 batches of 10k rows are ingested "
            "one after another: every hot swap empties the caches and "
            "takes the write lock, so reads pay for writes",
            backend="npz", shards=1, traffic="dash", ingest=True,
        ),
    )
}


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------
#: The dashboard: every aggregate the engine has, by each key and both,
#: one filtered panel and one global count.
DASHBOARD: Tuple[str, ...] = (
    f"SELECT country, AVG(value) a FROM {TABLE} GROUP BY country",
    f"SELECT parameter, SUM(value) s FROM {TABLE} GROUP BY parameter",
    f"SELECT country, parameter, COUNT(*) c FROM {TABLE} "
    "GROUP BY country, parameter",
    f"SELECT country, STD(value) sd FROM {TABLE} GROUP BY country",
    f"SELECT parameter, MIN(value) lo, MAX(value) hi FROM {TABLE} "
    "GROUP BY parameter",
    f"SELECT country, AVG(value) a FROM {TABLE} "
    "WHERE parameter = 'pm25' GROUP BY country",
    f"SELECT country, parameter, AVG(value) a, SUM(value) s FROM {TABLE} "
    "GROUP BY country, parameter",
    f"SELECT COUNT(*) c FROM {TABLE}",
)

#: Answer columns left out of the accuracy metrics: a sample has no
#: unbiased estimator of an extreme, and a group minimum near zero
#: makes the relative error unbounded.
EXTREME_COLUMNS = frozenset({"lo", "hi"})

#: Answer columns that hold a standard deviation.
DEVIATION_COLUMNS = frozenset({"sd"})

#: Ad-hoc shapes: ``(template, literal low, literal high)``. The ranges
#: keep most rows (value: median 1.9; latitude: 10th percentile 1.2),
#: so the kernels see about the same work for every literal.
ADHOC_SHAPES: Tuple[Tuple[str, float, float], ...] = (
    (f"SELECT country, AVG(value) a FROM {TABLE} "
     "WHERE value > {lit} GROUP BY country", 0.5, 1.5),
    (f"SELECT country, parameter, SUM(value) s, COUNT(*) c FROM {TABLE} "
     "WHERE latitude > {lit} GROUP BY country, parameter", 0.0, 30.0),
    (f"SELECT parameter, MIN(value) lo, MAX(value) hi FROM {TABLE} "
     "WHERE value > {lit} GROUP BY parameter", 0.5, 1.5),
    (f"SELECT country, STD(value) sd FROM {TABLE} "
     "WHERE latitude > {lit} GROUP BY country", 0.0, 30.0),
    (f"SELECT country, parameter, AVG(value) a FROM {TABLE} "
     "WHERE value > {lit} GROUP BY country, parameter", 0.5, 1.5),
)

EXACT_SHAPE = (
    f"SELECT country, AVG(value) a, STD(value) sd FROM {TABLE} "
    "WHERE value > {lit} GROUP BY country"
)

_GOLDEN = 0.6180339887498949


def _literal(seed: int, index: int, low: float, high: float) -> str:
    """The ``index``-th literal of a seed: a golden-ratio sequence, so
    literals never repeat within a run and spread evenly over the
    range whatever prefix of the sequence a window uses."""
    offset = ((seed * 2654435761) % 1_000_003) / 1_000_003
    unit = (offset + index * _GOLDEN) % 1.0
    return f"{low + (high - low) * unit:.9f}"


def adhoc_sql(seed: int, index: int) -> str:
    template, low, high = ADHOC_SHAPES[index % len(ADHOC_SHAPES)]
    return template.format(lit=_literal(seed, index, low, high))


def exact_sql(seed: int, index: int) -> str:
    return EXACT_SHAPE.format(lit=_literal(seed, 7_000_000 + index, 0.5, 1.5))


def traffic_sql(workload: Workload, seed: int, start: int, count: int) -> List[str]:
    """Requests ``start .. start+count`` of a lifetime's sequence."""
    if workload.traffic == "dash":
        return [DASHBOARD[i % len(DASHBOARD)] for i in range(start, start + count)]
    return [adhoc_sql(seed, i) for i in range(start, start + count)]


def window_sizes(workload: Workload, scale: Scale) -> Tuple[int, int]:
    return scale.hot_window if workload.traffic == "dash" else scale.adhoc_window


# ----------------------------------------------------------------------
# program invocations
# ----------------------------------------------------------------------
def build_args(workload: Workload, root: str, base: str, scale: Scale,
               build_seed: int) -> List[str]:
    args = [
        "warehouse", "build", "--root", root, "--backend", workload.backend,
        "--table", base, "--table-name", TABLE, "--name", SAMPLE,
        "--group-by", GROUP_BY, "--columns", VALUE_COLUMNS,
        "--budget", str(scale.budget), "--seed", str(build_seed),
    ]
    if workload.shards > 1:
        args += ["--shards", str(workload.shards)]
    return args


def serve_args(workload: Workload, root: str, base: str, watch: str) -> List[str]:
    """Default knobs, metrics on; only topology and ingest differ."""
    args = [
        "--root", root, "--backend", workload.backend,
        "--table", base, "--table-name", TABLE,
    ]
    if workload.ingest:
        args += ["--watch", watch, "--default-sample", SAMPLE,
                 "--daemon-interval", "0.05"]
    return args


# ----------------------------------------------------------------------
# fixture
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Fixture:
    base: pathlib.Path
    batches: Tuple[pathlib.Path, ...]
    seconds: float  # 0-ish when the files were already there


def ensure_fixture(scale: Scale) -> Fixture:
    """Generate (once per checkout) the base table and the append
    batches: one ``generate_openaq`` draw, so the batches follow the
    base's distribution and no refresh escalates to a rebuild. Files
    appear atomically; a second run finds them and generates nothing.
    """
    started = time.perf_counter()
    total = scale.base_rows + scale.batch_rows * scale.batches
    home = BENCH_DIR / ".fixture" / f"openaq-{total}-{GENERATOR_SEED}"
    base = home / "base.npz"
    batches = tuple(
        home / f"batch-{i:02d}.npz" for i in range(scale.batches)
    )
    if not all(path.exists() for path in (base, *batches)):
        import numpy as np

        from repro.datasets import generate_openaq

        home.mkdir(parents=True, exist_ok=True)
        table = generate_openaq(
            num_rows=total, num_countries=NUM_COUNTRIES, seed=GENERATOR_SEED
        )
        bounds = [0, scale.base_rows] + [
            scale.base_rows + scale.batch_rows * (i + 1)
            for i in range(scale.batches)
        ]
        for path, low, high in zip((base, *batches), bounds, bounds[1:]):
            scratch = path.with_name(f".{os.getpid()}-{path.name}")
            table.take(np.arange(low, high)).save(scratch)
            os.replace(scratch, path)
    return Fixture(base, batches, time.perf_counter() - started)


def build_seeds(seed: int, lifetimes: int) -> Sequence[int]:
    """One sample draw per lifetime, so the accuracy metric averages
    over draws instead of resting on one."""
    return [seed * 1009 + lifetime for lifetime in range(lifetimes)]
