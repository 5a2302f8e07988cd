"""Physical operators: grouping kernels agree, pipeline equality."""

import numpy as np
import pytest

from repro.engine import groupby
from repro.engine.groupby import compute_group_keys, compute_group_keys_sorted
from repro.engine.groupcache import default_group_code_cache
from repro.engine.sql.executor import execute_sql, plan_query
from repro.engine.sql.parser import parse_query
from repro.engine.table import Table


def _assert_tables_equal(a: Table, b: Table):
    assert a.column_names == b.column_names
    assert a.num_rows == b.num_rows
    for name in a.column_names:
        da, db = a.column(name).decode(), b.column(name).decode()
        if da.dtype.kind == "f":
            same = (da == db) | (np.isnan(da) & np.isnan(db))
            assert same.all(), name
        else:
            assert (da == db).all(), name


class TestSortedGroupKeys:
    @pytest.mark.parametrize("by", [["g"], ["g", "h"], ["h", "g"], []])
    def test_matches_hash_on_simple_table(self, simple_table, by):
        hashed = compute_group_keys(simple_table, by)
        sorted_ = compute_group_keys_sorted(simple_table, by)
        assert hashed.num_groups == sorted_.num_groups
        assert (hashed.gids == sorted_.gids).all()
        assert (hashed.representative == sorted_.representative).all()

    def test_matches_hash_on_dataset(self, openaq_small):
        sub = openaq_small.head(5000)
        by = ["country", "parameter", "unit"]
        hashed = compute_group_keys(sub, by)
        sorted_ = compute_group_keys_sorted(sub, by)
        assert (hashed.gids == sorted_.gids).all()
        assert (hashed.representative == sorted_.representative).all()

    def test_empty_table(self):
        table = Table.from_pydict({"a": []})
        keys = compute_group_keys_sorted(table, ["a"])
        assert keys.num_groups == 0


@pytest.fixture
def sorted_kernel(monkeypatch):
    """Route every grouping of the pipeline through the lexsort kernel
    (``compute_group_keys`` only reaches it on int64 key-space overflow)."""
    combined = groupby._group_keys

    def lexsorted(table, by):
        if not by:
            return combined(table, by)
        return compute_group_keys_sorted(table, by), False

    def enable():
        monkeypatch.setattr(groupby, "_group_keys", lexsorted)

    return enable


class TestKernelInterchangeability:
    QUERIES = [
        "SELECT g, h, SUM(x) s, COUNT(*) c FROM T GROUP BY g, h",
        "SELECT g, h, AVG(x) a FROM T GROUP BY g, h WITH CUBE",
        "SELECT g, h, MEDIAN(x) m FROM T GROUP BY g, h ORDER BY g, h",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_hash_and_sort_agree(self, simple_table, sql, sorted_kernel):
        query = parse_query(sql)
        hashed = plan_query(query).run({"T": simple_table})
        sorted_kernel()
        sorted_ = plan_query(query).run({"T": simple_table})
        _assert_tables_equal(hashed, sorted_)

    def test_agree_on_dataset(self, openaq_small, sorted_kernel):
        sub = openaq_small.head(8000)
        sql = (
            "SELECT country, parameter, AVG(value) a, COUNT(*) c "
            "FROM OpenAQ GROUP BY country, parameter"
        )
        query = parse_query(sql)
        hashed = plan_query(query).run({"OpenAQ": sub})
        sorted_kernel()
        sorted_ = plan_query(query).run({"OpenAQ": sub})
        _assert_tables_equal(hashed, sorted_)

    def test_weighted_agree(self, simple_table, sorted_kernel):
        weighted = simple_table.with_column(
            "__weight__",
            simple_table.column("y"),
        )
        query = parse_query("SELECT g, h, SUM(x) s FROM T GROUP BY g, h")
        hashed = plan_query(query, "__weight__").run({"T": weighted})
        sorted_kernel()
        sorted_ = plan_query(query, "__weight__").run({"T": weighted})
        _assert_tables_equal(hashed, sorted_)


class TestWideKeysUseTheGroupCodeCache:
    def test_four_key_group_by_hits_the_cache(self, simple_table):
        # There is one grouping entry, whatever the key width: a wide
        # GROUP BY over an immutable version factorizes once.
        table = simple_table.select(simple_table.column_names)
        table.cache_token = ("test", "wide", "v1")
        cache = default_group_code_cache()
        sql = "SELECT g, h, x, y, COUNT(*) c FROM T GROUP BY g, h, x, y"
        try:
            cold = execute_sql(sql, {"T": table})
            before = cache.counters()["hits"]
            warm = execute_sql(sql, {"T": table})
            assert cache.counters()["hits"] == before + 1
            _assert_tables_equal(cold, warm)
        finally:
            cache.invalidate()


class TestOrderByBooleanKey:
    def test_descending_boolean_expression(self, simple_table):
        out = execute_sql(
            "SELECT g, x FROM T ORDER BY x > 5 DESC, x ASC",
            {"T": simple_table},
        )
        xs = list(out["x"])
        # rows with x > 5 first, each block ascending by x
        assert xs == [10.0, 20.0, 100.0, 1.0, 2.0, 3.0]


class TestPlanExecutionEquivalence:
    """plan_query + run is exactly execute_sql (the public contract)."""

    QUERIES = [
        "SELECT g, COUNT(*) c FROM T GROUP BY g HAVING COUNT(*) > 1",
        "SELECT UPPER(g) ug, SUM(x) s FROM T GROUP BY UPPER(g)",
        "WITH f AS (SELECT g, x FROM T WHERE x > 1) "
        "SELECT g, SUM(x) s FROM f GROUP BY g ORDER BY s DESC",
        "SELECT t.g, u.m FROM T t "
        "JOIN (SELECT g, MAX(x) m FROM T GROUP BY g) u ON t.g = u.g",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_equivalent(self, simple_table, sql):
        query = parse_query(sql)
        via_plan = plan_query(query).run({"T": simple_table})
        via_api = execute_sql(sql, {"T": simple_table})
        _assert_tables_equal(via_plan, via_api)
