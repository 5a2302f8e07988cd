"""Accuracy contracts: construction, constraints, consistency — on
both topologies (``open_service`` fixture, see conftest.py)."""

import numpy as np
import pytest

from repro.warehouse import AccuracyContract, AccuracyContractViolation

SQL = "SELECT country, AVG(value) a FROM OpenAQ GROUP BY country"


@pytest.fixture()
def service(tmp_path, openaq_small, open_service):
    svc = open_service(tmp_path / "wh", {"OpenAQ": openaq_small})
    svc.build(
        "s", "OpenAQ", group_by=["country"], value_columns=["value"],
        budget=800,
    )
    return svc


class TestContractBlock:
    def test_approximate_contract_fields(self, service):
        answer = service.query_with_contract(SQL)
        contract = answer.contract
        assert contract.executed == "approximate"
        assert contract.sample_name == "s"
        assert contract.sample_version == "v000001"
        assert contract.predicted_cv > 0
        assert contract.max_group_cv >= contract.predicted_cv * 0.999
        assert len(contract.group_cvs) == len(contract.group_keys)
        assert contract.staleness == 0.0
        assert not contract.fallback_exact
        assert contract.satisfied

    def test_exact_mode_contract(self, service):
        contract = service.query_with_contract(SQL, mode="exact").contract
        assert contract.executed == "exact"
        assert not contract.fallback_exact  # exact was *requested*
        assert contract.sample_name is None
        assert contract.predicted_cv is None

    def test_router_fallback_is_flagged(self, service):
        # No sample stratifies parameter -> router runs exactly.
        contract = service.query_with_contract(
            "SELECT parameter, AVG(value) a FROM OpenAQ "
            "GROUP BY parameter"
        ).contract
        assert contract.executed == "exact"
        assert contract.fallback_exact

    def test_to_dict_schema_and_group_detail(self, service):
        payload = service.query_with_contract(SQL).contract.to_dict()
        for key in (
            "executed", "sample_name", "sample_version", "predicted_cv",
            "max_group_cv", "staleness", "drift", "needs_rebuild",
            "fallback_exact", "reason", "constraints", "satisfied",
        ):
            assert key in payload
        assert isinstance(payload["group_cvs"], dict)
        assert len(payload["group_cvs"]) > 0
        # capping removes per-group detail but keeps the summary
        capped = service.query_with_contract(SQL).contract.to_dict(
            max_groups=1
        )
        assert "group_cvs" not in capped
        assert capped["max_group_cv"] is not None

    def test_contract_matches_route_prediction(self, service):
        answer = service.query_with_contract(SQL)
        route = answer.result.route
        assert answer.contract.predicted_cv == route.predicted_cv
        assert answer.contract.group_cvs == route.group_cvs
        assert answer.contract.max_group_cv == max(route.group_cvs)


class TestConstraints:
    def test_unsatisfiable_max_cv_falls_back(self, service):
        answer = service.query_with_contract(SQL, max_cv=1e-12)
        assert answer.contract.executed == "exact"
        assert answer.contract.fallback_exact
        assert answer.contract.satisfied
        assert "max_cv" in answer.contract.reason
        # the answer is genuinely exact
        exact = service.query(SQL, mode="exact")
        assert np.allclose(
            np.asarray(answer.table["a"], dtype=float),
            np.asarray(exact.table["a"], dtype=float),
        )

    def test_reject_raises_with_contract(self, service):
        with pytest.raises(AccuracyContractViolation) as excinfo:
            service.query_with_contract(
                SQL, max_cv=1e-12, on_violation="reject"
            )
        err = excinfo.value
        assert err.violations
        assert isinstance(err.contract, AccuracyContract)
        assert not err.contract.satisfied
        assert err.contract.constraints == {"max_cv": 1e-12}

    def test_approx_mode_cannot_fall_back(self, service):
        with pytest.raises(AccuracyContractViolation):
            service.query_with_contract(SQL, mode="approx", max_cv=1e-12)

    def test_generous_constraints_pass_through(self, service):
        answer = service.query_with_contract(
            SQL, max_cv=100.0, max_staleness=10.0
        )
        assert answer.contract.executed == "approximate"
        assert answer.contract.satisfied
        assert answer.contract.constraints == {
            "max_cv": 100.0,
            "max_staleness": 10.0,
        }

    def test_max_staleness_enforced_after_refresh(
        self, tmp_path, openaq_small, open_service
    ):
        n = openaq_small.num_rows
        base = openaq_small.take(np.arange(0, int(n * 0.6)))
        batch = openaq_small.take(np.arange(int(n * 0.6), n))
        svc = open_service(tmp_path / "wh2", {"OpenAQ": base})
        svc.build(
            "s", "OpenAQ", group_by=["country"], value_columns=["value"],
            budget=600,
        )
        report = svc.refresh("s", batch)
        contract = svc.query_with_contract(SQL).contract
        if report.action == "incremental":
            assert contract.staleness > 0.0
            tighter = contract.staleness / 2
            fallen = svc.query_with_contract(
                SQL, max_staleness=tighter
            ).contract
            assert fallen.executed == "exact" and fallen.fallback_exact
        else:  # escalated to rebuild: fresh again
            assert contract.staleness == 0.0

    def test_bad_on_violation_rejected(self, service):
        with pytest.raises(ValueError):
            service.query_with_contract(SQL, on_violation="explode")


class TestCaching:
    def test_contracted_answers_memoized_per_epoch(self, service):
        first = service.query_with_contract(SQL)
        second = service.query_with_contract(SQL)
        assert second is first
        # different constraints -> different cache entry
        third = service.query_with_contract(SQL, max_cv=100.0)
        assert third is not first

    def test_swap_invalidates_contracted_answers(
        self, service, openaq_small
    ):
        first = service.query_with_contract(SQL)
        service.build(
            "s2", "OpenAQ", group_by=["country", "parameter"],
            value_columns=["value"], budget=800,
        )
        again = service.query_with_contract(SQL)
        assert again is not first
