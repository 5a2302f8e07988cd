"""One-pass per-stratum statistics.

The offline phase of every stratified sampler needs, for each stratum
``c`` and each aggregation column ``l``: the size ``n_c``, mean
``mu_{c,l}`` and population standard deviation ``sigma_{c,l}``. This
module computes them in a single vectorized pass (bincount moments), and
provides the streaming Welford accumulator the paper's single-pass
formulation implies, plus the *roll-up* used by multiple group-bys: the
statistics of a coarser group ``a`` are merged from the finest strata
``c in C(a)`` without touching the data again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from .groupby import GroupKeys, compute_group_keys
from .table import Table

__all__ = [
    "ColumnStats",
    "StrataStatistics",
    "WelfordAccumulator",
    "collect_strata_statistics",
    "grouped_moments",
    "rollup",
    "summarize_column_stats",
]


@dataclass
class ColumnStats:
    """Moments of one column within each stratum (arrays over strata)."""

    count: np.ndarray  # n_c
    total: np.ndarray  # sum of values
    total_sq: np.ndarray  # sum of squared values

    @property
    def mean(self) -> np.ndarray:
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.count > 0, self.total / self.count, np.nan)

    @property
    def variance(self) -> np.ndarray:
        """Population variance (ddof=0), clamped at zero."""
        with np.errstate(divide="ignore", invalid="ignore"):
            mean = np.where(self.count > 0, self.total / self.count, np.nan)
            ex2 = np.where(self.count > 0, self.total_sq / self.count, np.nan)
        var = ex2 - mean**2
        return np.where(var < 0, 0.0, var)

    @property
    def std(self) -> np.ndarray:
        return np.sqrt(self.variance)

    def cv(self, mean_floor: float = 0.0) -> np.ndarray:
        """Coefficient of variation sigma/|mu| per stratum.

        ``mean_floor`` guards strata whose mean is (near) zero, where the
        CV is undefined (the paper assumes non-zero means): |mu| is
        floored at ``mean_floor * max|mu|``.
        """
        mean = np.abs(self.mean)
        if mean_floor > 0:
            finite = mean[np.isfinite(mean)]
            scale = float(finite.max()) if len(finite) else 0.0
            mean = np.maximum(mean, mean_floor * scale)
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.std / mean


@dataclass
class StrataStatistics:
    """Per-stratum statistics for a fixed stratification.

    ``keys`` holds the decoded key tuple of each stratum, aligned with
    every array. ``columns`` maps aggregation-column name to its
    :class:`ColumnStats`.
    """

    by: Tuple[str, ...]
    keys: list
    sizes: np.ndarray  # n_c, int64
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    @property
    def num_strata(self) -> int:
        return len(self.keys)

    @property
    def total_rows(self) -> int:
        return int(self.sizes.sum())

    def key_index(self) -> dict:
        return {key: i for i, key in enumerate(self.keys)}

    def stats_for(self, column: str) -> ColumnStats:
        if column not in self.columns:
            raise KeyError(
                f"no statistics for column {column!r}; "
                f"collected: {', '.join(self.columns)}"
            )
        return self.columns[column]

    def column_summaries(self, mean_floor: float = 1e-9) -> Dict[str, Dict]:
        """JSON-ready per-column summary (``/stats``, CLI accounting)."""
        return {
            name: summarize_column_stats(cs, mean_floor=mean_floor)
            for name, cs in self.columns.items()
        }


def collect_strata_statistics(
    table: Table,
    by: Sequence[str],
    agg_columns: Sequence[str],
    keys: GroupKeys | None = None,
) -> StrataStatistics:
    """Single-pass statistics for stratification ``by``.

    ``keys`` may carry a pre-computed factorization (the samplers reuse
    one factorization for statistics and the sample draw).
    """
    if keys is None:
        keys = compute_group_keys(table, by)
    n_groups = keys.num_groups
    sizes = np.bincount(keys.gids, minlength=n_groups).astype(np.int64)
    stats = StrataStatistics(
        by=tuple(by),
        keys=keys.key_tuples(table),
        sizes=sizes,
    )
    for col_name in dict.fromkeys(agg_columns):  # dedupe, keep order
        values = table.column(col_name).values_numeric().astype(np.float64)
        total = np.bincount(keys.gids, weights=values, minlength=n_groups)
        total_sq = np.bincount(
            keys.gids, weights=values**2, minlength=n_groups
        )
        stats.columns[col_name] = ColumnStats(
            count=sizes.astype(np.float64), total=total, total_sq=total_sq
        )
    return stats


def grouped_moments(
    gids: np.ndarray, values: np.ndarray, num_groups: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-group Welford state ``(count, mean, m2)`` of ``values``.

    Two passes of scatter-sums: group sums give the means, then the
    squared deviations *from the group mean* are summed — not
    ``total_sq - n * mean**2``, which cancels catastrophically when
    ``|mean| >> sigma``. The result is what per-value
    :meth:`WelfordAccumulator.add` would reach (to rounding), so it
    merges into running states through :meth:`WelfordAccumulator.merge`.
    """
    values = np.asarray(values, dtype=np.float64)
    count = np.bincount(gids, minlength=num_groups)
    total = np.bincount(gids, weights=values, minlength=num_groups)
    mean = np.divide(
        total, count, out=np.zeros(len(count)), where=count > 0
    )
    deviation = values - mean[gids]
    m2 = np.bincount(
        gids, weights=deviation * deviation, minlength=num_groups
    )
    return count, mean, m2


def rollup(
    fine: StrataStatistics, parent_gids: np.ndarray, num_parents: int
) -> StrataStatistics:
    """Merge finest-strata statistics into coarser groups.

    ``parent_gids[c]`` is the coarse-group id of fine stratum ``c``.
    Moments are additive, so no data pass is needed — this is exactly the
    property the paper relies on for multiple group-bys ("compute the CV
    of a stratum using statistics stored for strata in finer
    stratification").
    """
    parent_gids = np.asarray(parent_gids, dtype=np.int64)
    if len(parent_gids) != fine.num_strata:
        raise ValueError("parent_gids must have one entry per fine stratum")
    sizes = np.bincount(
        parent_gids, weights=fine.sizes.astype(np.float64), minlength=num_parents
    ).astype(np.int64)
    merged = StrataStatistics(
        by=(), keys=[None] * num_parents, sizes=sizes
    )
    for name, cs in fine.columns.items():
        merged.columns[name] = ColumnStats(
            count=np.bincount(
                parent_gids, weights=cs.count, minlength=num_parents
            ),
            total=np.bincount(
                parent_gids, weights=cs.total, minlength=num_parents
            ),
            total_sq=np.bincount(
                parent_gids, weights=cs.total_sq, minlength=num_parents
            ),
        )
    return merged


def summarize_column_stats(
    cs: ColumnStats, mean_floor: float = 1e-9
) -> Dict:
    """Scalar summary of one column's per-stratum moments.

    Collapses the stratum arrays into the figures monitoring cares
    about — how many strata carry data and how dispersed the column is
    (mean/max per-stratum data CV). Never raises on empty or
    degenerate strata; CVs that stay undefined are reported as None.
    """
    populated = int(np.count_nonzero(np.asarray(cs.count) > 0))
    cvs = cs.cv(mean_floor=mean_floor)
    finite = cvs[np.isfinite(cvs)]
    return {
        "strata": int(len(cs.count)),
        "populated_strata": populated,
        "mean_data_cv": float(finite.mean()) if len(finite) else None,
        "max_data_cv": float(finite.max()) if len(finite) else None,
    }


class WelfordAccumulator:
    """Streaming mean/variance (Welford), with parallel merge.

    Matches the one-pass statistics collection of the paper's offline
    phase; ``merge`` implements Chan et al.'s parallel update so shards
    of a distributed scan combine exactly.
    """

    __slots__ = ("count", "mean", "m2")

    def __init__(
        self, count: float = 0, mean: float = 0.0, m2: float = 0.0
    ) -> None:
        self.count = count
        self.mean = mean
        self.m2 = m2

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (value - self.mean)

    def add_many(self, values) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        count, mean, m2 = grouped_moments(
            np.zeros(len(values), dtype=np.intp), values, 1
        )
        self.merge(
            WelfordAccumulator(int(count[0]), float(mean[0]), float(m2[0]))
        )

    def scale(self, factor: float) -> None:
        """Uniformly down-weight the accumulated mass.

        Scaling ``count`` and ``m2`` by the same factor leaves the mean
        and (population) variance unchanged — only the state's weight
        relative to later observations shrinks. This is the exponential
        -decay primitive: applied once per window boundary, older data
        contributes ``factor**age`` of its original mass to every
        subsequent re-balance decision. ``count`` becomes fractional;
        all downstream moment math is float already.
        """
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        self.count *= factor
        self.m2 *= factor

    def merge(self, other: "WelfordAccumulator") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta**2 * self.count * other.count / total
        self.count = total

    @property
    def variance(self) -> float:
        """Population variance (ddof=0)."""
        if self.count == 0:
            return float("nan")
        return max(self.m2 / self.count, 0.0)

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))

    @property
    def cv(self) -> float:
        if self.count == 0 or self.mean == 0:
            return float("nan")
        return self.std / abs(self.mean)
