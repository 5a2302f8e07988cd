"""Differential proof of the fused filter + group + aggregate kernel.

The aggregate operators execute WHERE themselves: no filtered table is
built, group ids of a token-stamped table come from the group-code
cache and are compacted, and aggregate arguments only ever see the
surviving rows. All of that is only allowed to be a performance
decision. The oracle is the unfused pipeline the engine used to run —
``table.filter(mask)`` → ``group_by_aggregate`` — which stays here as
the reference; float columns are compared by ``tobytes()``, so not
even a summation order may differ.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sample import WEIGHT_COLUMN, Allocation, StratifiedSample
from repro.engine.expr import Star, evaluate
from repro.engine.groupby import (
    compute_group_keys,
    group_by_aggregate,
    selected_group_keys,
)
from repro.engine.groupcache import default_group_code_cache
from repro.engine.sql.executor import execute_sql
from repro.engine.sql.parser import parse_query
from repro.engine.schema import DType
from repro.engine.table import Column, Table
from repro.obs import default_registry
from repro.warehouse.partials import (
    compute_partials,
    decompose,
    finalize_partials,
    merge_partials,
)

KEYS = ("s", "i", "b", "t")
AGGREGATES = (
    "COUNT(*)", "COUNT(v)", "SUM(v)", "AVG(v)", "MIN(v)", "MAX(v)",
    "VAR(v)", "STD(v)", "MEDIAN(v)", "COUNT_IF(v > 0)",
)

_tokens = itertools.count()

rows_strategy = st.lists(
    st.tuples(
        st.sampled_from(["a", "b", "c", "d"]),
        st.integers(-2, 2),
        st.booleans(),
        st.sampled_from(["x", "y"]),
        st.one_of(
            st.floats(-1e6, 1e6),
            st.sampled_from([np.nan, np.inf, -np.inf, 0.0]),
        ),
        st.floats(0.5, 50.0),  # HT weight
        st.booleans(),  # random mask
    ),
    min_size=0,
    max_size=60,
)
by_strategy = st.lists(
    st.sampled_from(KEYS), min_size=0, max_size=4, unique=True
)
mask_strategy = st.sampled_from(["random", "none", "all", "drop-group"])


def make_table(rows, mask_kind, stamped):
    keep = [r[6] for r in rows]
    if mask_kind == "none":
        keep = [False] * len(rows)
    elif mask_kind == "all":
        keep = [True] * len(rows)
    elif mask_kind == "drop-group":  # one whole group filtered out
        keep = [r[0] != "a" for r in rows]
    def strings(j):
        return Column.from_strings(
            np.asarray([r[j] for r in rows], dtype=object)
        )

    def column(dtype, values):
        return Column(dtype, np.asarray(values, dtype=dtype.storage_dtype))

    table = Table(
        {
            "s": strings(0),
            "i": column(DType.INT64, [r[1] for r in rows]),
            "b": column(DType.BOOL, [r[2] for r in rows]),
            "t": strings(3),
            "v": column(DType.FLOAT64, [r[4] for r in rows]),
            WEIGHT_COLUMN: column(DType.FLOAT64, [r[5] for r in rows]),
            "keep": column(DType.BOOL, keep),
        },
        name="T",
    )
    if stamped:
        table.cache_token = ("prop", "fused", next(_tokens))
    return table


def reference(table, by, weighted):
    """The unfused path: copy every column through the mask, factorize
    the copy, aggregate."""
    filtered = table.filter(table.column("keep").data)
    parsed = parse_query(f"SELECT {', '.join(AGGREGATES)} FROM T")
    aggregates = [
        (
            f"a{j}",
            item.expr.func,
            None
            if isinstance(item.expr.arg, Star)
            else evaluate(item.expr.arg, filtered),
        )
        for j, item in enumerate(parsed.items)
    ]
    weights = filtered.column(WEIGHT_COLUMN).data if weighted else None
    return group_by_aggregate(filtered, by, aggregates, weights)


def assert_identical(got: Table, want: Table):
    assert got.column_names == want.column_names
    assert got.num_rows == want.num_rows
    for name in want.column_names:
        a, b = got.column(name).decode(), want.column(name).decode()
        if a.dtype.kind == "f":
            assert a.tobytes() == b.tobytes(), name
        else:
            assert list(a) == list(b), name


def fused_sql(by, select, tail=""):
    keys = ", ".join(by)
    group = f" GROUP BY {keys}" if by else ""
    head = f"{keys}, " if by else ""
    return f"SELECT {head}{select} FROM T WHERE keep{group}{tail}"


@pytest.fixture(autouse=True)
def _drop_cached_codes():
    yield
    default_group_code_cache().invalidate()


class TestFusedEqualsFilterThenAggregate:
    @settings(max_examples=120, deadline=None)
    @given(
        rows=rows_strategy,
        by=by_strategy,
        mask_kind=mask_strategy,
        stamped=st.booleans(),
        weighted=st.booleans(),
    )
    def test_every_aggregate(self, rows, by, mask_kind, stamped, weighted):
        table = make_table(rows, mask_kind, stamped)
        select = ", ".join(
            f"{agg} a{j}" for j, agg in enumerate(AGGREGATES)
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            want = reference(table, by, weighted)
            for _ in range(2):  # cold codes, then the cached ones
                got = execute_sql(
                    fused_sql(by, select),
                    {"T": table},
                    weight_column=WEIGHT_COLUMN if weighted else None,
                )
                if not by and want.num_rows == 0:
                    # SQL's one row for a global aggregate over nothing.
                    assert got.num_rows == 1
                    assert got.column("a0").data[0] == 0.0
                    assert np.isnan(got.column("a3").data[0])
                else:
                    assert_identical(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        rows=rows_strategy,
        by=by_strategy,
        mask_kind=mask_strategy,
        stamped=st.booleans(),
    )
    def test_group_keys_match_the_filtered_factorization(
        self, rows, by, mask_kind, stamped
    ):
        table = make_table(rows, mask_kind, stamped)
        mask = table.column("keep").data
        want = compute_group_keys(table.filter(mask), by)
        got = selected_group_keys(table, by, np.flatnonzero(mask))
        assert got.num_groups == want.num_groups
        assert np.array_equal(got.gids, want.gids)
        # Representatives index the *unfiltered* table, yet name the
        # same key values.
        assert got.key_tuples(table) == want.key_tuples(table.filter(mask))

    @settings(max_examples=60, deadline=None)
    @given(
        rows=rows_strategy,
        by=by_strategy.filter(lambda by: len(by) <= 2),
        mask_kind=mask_strategy,
        stamped=st.booleans(),
        tail=st.sampled_from(
            [" HAVING COUNT(*) > 1", " WITH CUBE", ""]
        ),
    )
    def test_count_alone_having_and_cube(
        self, rows, by, mask_kind, stamped, tail
    ):
        if not by:
            tail = ""
        table = make_table(rows, mask_kind, stamped)
        prefiltered = {"T": table.filter(table.column("keep").data)}
        for select in ("COUNT(*) c", "SUM(v) total, MEDIAN(v) m"):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                got = execute_sql(fused_sql(by, select, tail), {"T": table})
                want = execute_sql(
                    fused_sql(by, select, tail).replace(" WHERE keep", ""),
                    prefiltered,
                )
            assert_identical(got, want)


class TestExcludedRowsAreNeverEvaluated:
    SQL = (
        "SELECT g, SUM(y / x) q, SUM(y % x) r, COUNT(*) c "
        "FROM T WHERE x <> 0 GROUP BY g"
    )

    @pytest.mark.parametrize("stamped", [False, True])
    def test_masked_out_rows_change_nothing_and_stay_silent(self, stamped):
        clean = Table.from_pydict(
            {
                "g": ["a", "a", "b", "b"],
                "x": [2.0, 4.0, 5.0, 8.0],
                "y": [1.0, 3.0, 7.0, 9.0],
            },
            name="T",
        )
        dirty = Table.from_pydict(
            {
                "g": ["a", "z", "a", "b", "a", "b", "b"],
                "x": [2.0, 0.0, 4.0, 0.0, 0.0, 5.0, 8.0],
                "y": [1.0, np.nan, 3.0, np.inf, 6.0, 7.0, 9.0],
            },
            name="T",
        )
        if stamped:
            dirty.cache_token = ("prop", "dirty", next(_tokens))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = execute_sql(self.SQL, {"T": dirty})
        assert_identical(got, execute_sql(self.SQL, {"T": clean}))

    def test_integer_zero_divisor(self):
        table = Table.from_pydict(
            {"g": ["a", "a", "b"], "x": [0, 3, 2], "y": [5, 7, 9]},
            name="T",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = execute_sql(
                "SELECT g, SUM(y % x) r FROM T WHERE x <> 0 GROUP BY g",
                {"T": table},
            )
        assert out.to_pydict() == {"g": ["a", "b"], "r": [1.0, 1.0]}


class TestFilteredQueriesHitTheGroupCodeCache:
    def test_second_filtered_query_of_a_by_tuple_is_a_hit(self):
        rng = np.random.default_rng(0)
        table = Table.from_pydict(
            {
                "g": rng.integers(0, 7, 500),
                "h": rng.integers(0, 3, 500),
                "v": rng.normal(size=500),
            },
            name="T",
        )
        table.cache_token = ("prop", "hits", next(_tokens))
        counter = default_registry().get("repro_groupcode_cache_total")
        sql = "SELECT g, h, AVG(v) a FROM T WHERE v > {} GROUP BY g, h"
        execute_sql(sql.format(-0.5), {"T": table})
        hits = counter.value(result="hit")
        misses = counter.value(result="miss")
        execute_sql(sql.format(0.25), {"T": table})
        assert counter.value(result="hit") == hits + 1
        assert counter.value(result="miss") == misses


class TestPartialsAgreeWithTheOperator:
    QUERIES = (
        "SELECT s, i, SUM(v) a, COUNT(*) c, AVG(v) m FROM T "
        "WHERE keep GROUP BY s, i",
        "SELECT b, MIN(v) lo, MAX(v) hi, VAR(v) var FROM T "
        "WHERE keep GROUP BY b",
        "SELECT COUNT(*) c, SUM(v) a FROM T WHERE keep",
    )

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d"]),
                st.integers(-2, 2),
                st.booleans(),
                st.sampled_from(["x", "y"]),
                st.floats(-1e3, 1e3),
                st.floats(0.5, 50.0),
                st.booleans(),
            ),
            max_size=60,
        ),
        mask_kind=mask_strategy,
        stamped=st.booleans(),
    )
    def test_one_piece_partials_equal_plain(self, rows, mask_kind, stamped):
        table = make_table(rows, mask_kind, stamped)
        n = table.num_rows
        # The two paths square in a different order ((v*w)*v against
        # (v*v)*w), so a variance may differ by an ulp of v^2.
        scale = max([1.0] + [r[4] ** 2 for r in rows])
        sample = StratifiedSample(
            table, Allocation((), [()], [n], [n]), "test", n, n
        )
        for sql in self.QUERIES:
            plain = sample.answer(sql, "T")
            dq = decompose(parse_query(sql))
            merged = merge_partials(
                [compute_partials(sample, dq)], len(dq.agg_calls)
            )
            got = finalize_partials(dq, merged)
            assert got.column_names == plain.column_names
            assert got.num_rows == plain.num_rows
            for name in plain.column_names:
                a = got.column(name).decode()
                b = plain.column(name).decode()
                if b.dtype.kind == "f":
                    np.testing.assert_allclose(
                        a, b, rtol=1e-12, atol=1e-12 * scale, equal_nan=True
                    )
                else:
                    assert list(a) == list(b), name
