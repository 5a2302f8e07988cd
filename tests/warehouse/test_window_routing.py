"""Router regressions for time-windowed samples.

``WHERE ts >= ...`` / ``BETWEEN`` predicates route to the covering
window set (a single member or the materialized ``@slide`` merge),
half-open boundary timestamps land in exactly one window, predicates
the windows cannot cover fall back to exact, and retention violations
surface through the contract machinery (on both topologies — the
``open_service`` fixture, see conftest.py).

Budgets here exceed the per-window row counts, so every windowed
member carries *all* of its window's rows at weight 1 and an
approximate answer must equal the exact one — any routing slip that
includes or drops a window shows up as a hard value mismatch.
"""

import os

import numpy as np
import pytest

from repro.engine.schema import DType
from repro.engine.table import Column, Table
from repro.warehouse import WarehouseService
from repro.warehouse.contracts import AccuracyContractViolation
from repro.warehouse.windows import SLIDE_SUFFIX

_BACKEND = os.environ.get("REPRO_TEST_BACKEND", "npz")

HOUR = 3600
N_HOURS = 6
ROWS_PER_HOUR = 24  # well under the budget: windows sample everything


def timestamped_table() -> Table:
    """Six hours of deterministic rows, 24 per hour, two groups.

    One row sits exactly on every window boundary (ts = k * HOUR), so
    half-open assignment is exercised by construction.
    """
    ts, g, v = [], [], []
    for hour in range(N_HOURS):
        for i in range(ROWS_PER_HOUR):
            ts.append(hour * HOUR + i * (HOUR // ROWS_PER_HOUR))
            g.append("A" if i % 3 else "B")
            v.append(float(hour * 100 + i))
    return Table.from_pydict({"g": g, "ts": ts, "v": v}, name="T")


def answer_map(table):
    groups = table.column("g").decode()
    values = table.column(table.column_names[-1]).decode()
    return dict(zip(groups, values))


@pytest.fixture()
def service(tmp_path):
    svc = WarehouseService(
        tmp_path / "wh", {"T": timestamped_table()}, backend=_BACKEND
    )
    svc.build_windowed(
        "s", "T", group_by=["g"], value_columns=["v"], budget=500,
        ts_column="ts", window=HOUR,
    )
    return svc


def sql(where: str) -> str:
    return f"SELECT g, SUM(v) s FROM T WHERE {where} GROUP BY g"


class TestRouting:
    def test_ge_predicate_routes_to_slide(self, service):
        result = service.query(sql(f"ts >= {HOUR}"))
        assert result.route.sample_name == "s" + SLIDE_SUFFIX
        assert result.route.window_bounds == (HOUR, N_HOURS * HOUR)

    def test_between_routes_to_window_set(self, service):
        result = service.query(
            sql(f"ts BETWEEN {HOUR} AND {3 * HOUR - 1}")
        )
        assert result.route.sample_name == "s" + SLIDE_SUFFIX
        assert result.route.window_bounds == (HOUR, 3 * HOUR)

    def test_single_window_routes_to_member(self, service):
        result = service.query(
            sql(f"ts >= {HOUR} AND ts < {2 * HOUR}")
        )
        assert result.route.sample_name == f"s@w{HOUR}"
        assert result.route.window_bounds == (HOUR, 2 * HOUR)

    def test_stale_wider_slide_never_outranks_tighter_member(
        self, service
    ):
        """Routing is independent of query order.

        A wide slide query registers ``s@slide`` with more rows (hence
        a lower predicted CV) than any single member; a later
        single-window query must still route to the exactly-matching
        member, not to the stale wider slide that happens to cover it.
        """
        wide = service.query(sql(f"ts >= {HOUR} AND ts < {5 * HOUR}"))
        assert wide.route.sample_name == "s" + SLIDE_SUFFIX
        assert wide.route.window_bounds == (HOUR, 5 * HOUR)
        narrow = service.query(
            sql(f"ts >= {HOUR} AND ts < {2 * HOUR}")
        )
        assert narrow.route.sample_name == f"s@w{HOUR}"
        assert narrow.route.window_bounds == (HOUR, 2 * HOUR)

    def test_windowed_answers_match_exact(self, service):
        """Saturated budgets make any mis-covered window a value bug."""
        for where in (
            f"ts >= {HOUR}",
            f"ts >= {HOUR} AND ts < {4 * HOUR}",
            f"ts BETWEEN 0 AND {2 * HOUR - 1}",
        ):
            approx = service.query(sql(where))
            exact = service.query(sql(where), mode="exact")
            assert approx.route.approximate
            assert answer_map(approx.table) == pytest.approx(
                answer_map(exact.table)
            )

    def test_boundary_row_lands_in_exactly_one_window(self, service):
        """ts = 2 * HOUR belongs to [2h, 3h), never to [1h, 2h)."""
        below = service.query(sql(f"ts >= {HOUR} AND ts < {2 * HOUR}"))
        above = service.query(
            sql(f"ts >= {2 * HOUR} AND ts < {3 * HOUR}")
        )
        table = timestamped_table()
        ts = np.asarray(table.column("ts").decode())
        v = np.asarray(table.column("v").decode())
        want_below = v[(ts >= HOUR) & (ts < 2 * HOUR)].sum()
        want_above = v[(ts >= 2 * HOUR) & (ts < 3 * HOUR)].sum()
        assert sum(answer_map(below.table).values()) == pytest.approx(
            want_below
        )
        assert sum(answer_map(above.table).values()) == pytest.approx(
            want_above
        )

    def test_range_past_horizon_falls_back_to_exact(self, service):
        result = service.query(
            sql(f"ts >= 0 AND ts < {(N_HOURS + 2) * HOUR}")
        )
        assert not result.route.approximate

    def test_no_time_predicate_falls_back_to_exact(self, service):
        result = service.query("SELECT g, SUM(v) s FROM T GROUP BY g")
        assert not result.route.approximate

    def test_unbounded_range_reaches_the_horizon(self, service):
        """An open-ended ``ts >=`` is only sound from a window set whose
        coverage reaches the newest ingested window."""
        result = service.query(sql(f"ts >= {(N_HOURS - 1) * HOUR}"))
        assert result.route.approximate
        assert result.route.window_bounds[1] == N_HOURS * HOUR

    def test_refresh_rolls_the_horizon_forward(self, service):
        batch = Table.from_pydict(
            {
                "g": ["A", "B"],
                "ts": [N_HOURS * HOUR + 1, N_HOURS * HOUR + 2],
                "v": [1.0, 2.0],
            }
        )
        report = service.refresh("s", batch)
        assert report.action == "windowed"
        assert report.opened == [N_HOURS * HOUR]
        result = service.query(sql(f"ts >= {HOUR}"))
        assert result.route.window_bounds[1] == (N_HOURS + 1) * HOUR


class TestContracts:
    def test_contract_carries_window_bounds(self, service):
        answer = service.query_with_contract(sql(f"ts >= {HOUR}"))
        contract = answer.contract
        assert contract.executed == "approximate"
        assert contract.window_bounds == (HOUR, N_HOURS * HOUR)
        assert contract.to_dict()["window_bounds"] == [
            HOUR, N_HOURS * HOUR,
        ]

    def test_exact_contract_has_no_window_bounds(self, service):
        answer = service.query_with_contract(
            sql(f"ts >= {HOUR}"), mode="exact"
        )
        assert answer.contract.window_bounds is None

    def test_below_retention_rejected(self, tmp_path, open_service):
        svc = open_service(tmp_path / "wh", {"T": timestamped_table()})
        svc.build_windowed(
            "s", "T", group_by=["g"], value_columns=["v"], budget=500,
            ts_column="ts", window=HOUR, retention=3,
        )
        # Only the newest 3 windows remain.
        assert sorted(svc.samples()) == [
            f"s@w{h * HOUR}" for h in range(3, N_HOURS)
        ]
        with pytest.raises(AccuracyContractViolation) as err:
            svc.query_with_contract(
                sql(f"ts >= {HOUR}"), on_violation="reject"
            )
        assert "retention" in str(err.value)
        # Default policy: fall back to the (complete) base table.
        answer = svc.query_with_contract(sql(f"ts >= {HOUR}"))
        assert answer.contract.executed == "exact"
        exact = svc.query(sql(f"ts >= {HOUR}"), mode="exact")
        assert answer_map(answer.result.table) == pytest.approx(
            answer_map(exact.table)
        )


class TestOneSwapPerBatch:
    def test_windowed_refresh_is_one_swap(self, tmp_path, open_service):
        """A batch that refreshes the newest member *and* opens a new
        window is one maintenance round: the epoch advances once, on
        either topology, so readers see none or all of it and the
        answer cache is emptied once."""
        svc = open_service(tmp_path / "wh", {"T": timestamped_table()})
        svc.build_windowed(
            "s", "T", group_by=["g"], value_columns=["v"], budget=500,
            ts_column="ts", window=HOUR,
        )
        newest = (N_HOURS - 1) * HOUR
        batch = Table.from_pydict(
            {
                "g": ["A", "B", "A", "B"],
                "ts": [newest + 7, newest + 8,
                       N_HOURS * HOUR + 1, N_HOURS * HOUR + 2],
                "v": [1.0, 2.0, 3.0, 4.0],
            }
        )
        before = svc.epoch
        report = svc.refresh("s", batch)
        assert report.refreshed == [newest]
        assert report.opened == [N_HOURS * HOUR]
        assert svc.epoch == before + 1
        exact = svc.execute("SELECT COUNT(*) c FROM T")
        assert exact["c"][0] == N_HOURS * ROWS_PER_HOUR + 4
        result = svc.query(sql(f"ts >= {HOUR}"))
        assert result.route.window_bounds == (HOUR, (N_HOURS + 1) * HOUR)


class TestStoreMeta:
    def test_windowed_member_round_trips_window_block(self, service):
        stored = service.store.get(f"s@w{HOUR}")
        assert stored.window == {
            "column": "ts",
            "width": HOUR,
            "start": HOUR,
            "end": 2 * HOUR,
        }

    def test_unwindowed_member_has_no_window_block(
        self, tmp_path, openaq_small
    ):
        svc = WarehouseService(
            tmp_path / "wh", {"OpenAQ": openaq_small}, backend=_BACKEND
        )
        svc.build(
            "p", "OpenAQ", group_by=["country"], value_columns=["value"],
            budget=400,
        )
        assert svc.store.get("p").window is None

    def test_warm_start_readopts_windowed_family(self, service, tmp_path):
        twin = WarehouseService(
            tmp_path / "wh", {"T": timestamped_table()}, backend=_BACKEND
        )
        result = twin.query(sql(f"ts >= {HOUR}"))
        assert result.route.sample_name == "s" + SLIDE_SUFFIX
        assert result.route.window_bounds == (HOUR, N_HOURS * HOUR)


class TestMaintenanceOnlyProcess:
    def test_refresh_without_base_table_rolls_forward(
        self, service, tmp_path
    ):
        """A maintenance-only process (no base table registered — the
        CLI ``warehouse refresh`` shape) must still re-adopt the family
        from the store and roll its windows forward."""
        maintenance = WarehouseService(
            tmp_path / "wh", {}, backend=_BACKEND
        )
        batch = Table.from_pydict(
            {
                "g": ["A", "B"],
                "ts": [N_HOURS * HOUR + 1, N_HOURS * HOUR + 2],
                "v": [1.0, 2.0],
            }
        )
        report = maintenance.refresh("s", batch)
        assert report.action == "windowed"
        assert report.opened == [N_HOURS * HOUR]
        # A serving process (table registered) sees the rolled horizon.
        twin = WarehouseService(
            tmp_path / "wh", {"T": timestamped_table()}, backend=_BACKEND
        )
        result = twin.query(sql(f"ts >= {HOUR}"))
        assert result.route.window_bounds == (HOUR, (N_HOURS + 1) * HOUR)

    def test_timestamp_dtype_survives_refresh_and_slides(self, tmp_path):
        """Streaming refresh rebuilds the reservoir from python values;
        the member's logical schema (TIMESTAMP ts) must round-trip, or
        the next slide merge fails concatenating member tables."""
        base = timestamped_table()
        base = base.with_column(
            "ts",
            Column.from_values(
                base.column("ts").decode(), DType.TIMESTAMP
            ),
        )
        svc = WarehouseService(
            tmp_path / "wh", {"T": base}, backend=_BACKEND
        )
        svc.build_windowed(
            "s", "T", group_by=["g"], value_columns=["v"], budget=500,
            ts_column="ts", window=HOUR,
        )
        newest = (N_HOURS - 1) * HOUR
        batch = Table.from_pydict({"g": ["A"], "v": [9.0]}).with_column(
            "ts", Column.from_values([newest + 5], DType.TIMESTAMP)
        )
        report = svc.refresh("s", batch)
        assert report.refreshed == [newest]
        stored = svc.store.get(f"s@w{newest}")
        assert stored.sample.table.column("ts").dtype is DType.TIMESTAMP
        result = svc.query(sql(f"ts >= {HOUR}"))
        assert result.route.sample_name == "s" + SLIDE_SUFFIX
        assert result.route.window_bounds == (HOUR, N_HOURS * HOUR)
