"""Per-query accuracy contracts.

Sampling-backed AQP systems are judged by the error guarantees they
return *alongside* answers, not by the rows alone. An
:class:`AccuracyContract` is the machine-readable block the warehouse
attaches to every answer: which sample (and which immutable version)
produced it, the a-priori per-group CV prediction for that sample and
query, how stale the sample is relative to its base table, and whether
the router fell back to exact execution — plus the caller's constraints
(``max_cv`` / ``max_staleness``) and whether they were satisfied.

Callers state constraints; the service either proves them met, silently
falls back to exact execution (which trivially satisfies any accuracy
constraint), or raises :class:`AccuracyContractViolation` — the HTTP
layer maps that to a 412 Precondition Failed.

The CV figures are the a-priori predictions of
:mod:`repro.aqp.planning` (see ``docs/ACCURACY.md`` for how they relate
to the paper's guarantees); they are estimates computed from the
sample's persisted per-stratum moments of the column(s) the query
actually aggregates (``cv_columns`` names them — that is what the
contract *covers*), not post-hoc measured errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "AccuracyContract",
    "AccuracyContractViolation",
    "ContractedResult",
    "build_contract",
]

#: Per-group CV detail is elided from ``to_dict`` beyond this many
#: strata so a fine-grained sample cannot bloat every HTTP response.
MAX_GROUP_DETAIL = 200


@dataclass(frozen=True)
class AccuracyContract:
    """Accuracy guarantees attached to one answered query.

    Immutable snapshot taken under the same read lock as the query
    execution, so ``sample_version`` is exactly the version whose rows
    produced the answer even while writers hot-swap versions.
    """

    #: ``"approximate"`` or ``"exact"`` — how the answer was computed.
    executed: str
    #: Sample that answered (None for exact execution).
    sample_name: Optional[str] = None
    #: Immutable store version of that sample (None for exact).
    sample_version: Optional[str] = None
    #: Mean a-priori estimate CV over the sample's strata (None: exact).
    predicted_cv: Optional[float] = None
    #: Worst per-stratum predicted CV (None for exact execution).
    max_group_cv: Optional[float] = None
    #: Aggregate columns whose persisted moments the CV prediction was
    #: computed from — the columns this contract *covers*. Empty for
    #: COUNT(*)-style queries (prediction from sampling fractions
    #: alone), None for exact execution.
    cv_columns: Optional[Tuple[str, ...]] = None
    #: Per-stratum predicted CVs, aligned with ``group_keys``.
    group_cvs: Optional[Tuple[float, ...]] = None
    #: Stratification key tuples, aligned with ``group_cvs``.
    group_keys: Optional[Tuple[Tuple, ...]] = None
    #: Rows ingested since the last full build / base rows (0.0 fresh).
    #: For a windowed sample this is *event-time*: how many window
    #: widths the newest covered event lags behind now.
    staleness: float = 0.0
    #: Half-open event-time range ``[start, end)`` the answering sample
    #: actually covers (None for un-windowed samples and exact
    #: execution). Sits next to ``staleness``: staleness says how far
    #: behind the data is, ``window_bounds`` says which slice of time
    #: the answer speaks for.
    window_bounds: Optional[Tuple[int, int]] = None
    #: Achieved / optimal predicted-CV objective ratio (1.0 optimal).
    drift: float = 1.0
    #: Maintenance flagged this sample for a full rebuild.
    needs_rebuild: bool = False
    #: True when the answer is exact *although* approximation was
    #: allowed — the router found no usable sample, or the caller's
    #: constraints forced the fallback.
    fallback_exact: bool = False
    #: Router / fallback explanation, always present.
    reason: str = ""
    #: Echo of the caller's constraints, e.g. ``{"max_cv": 0.05}``.
    constraints: Dict[str, float] = field(default_factory=dict)
    #: Whether every stated constraint holds for this answer.
    satisfied: bool = True

    def to_dict(self, max_groups: int = MAX_GROUP_DETAIL) -> Dict:
        """JSON-ready representation of the contract.

        Per-group detail (``group_cvs`` keyed by the stratification
        keys) is included only up to ``max_groups`` strata; the scalar
        summary fields are always present.
        """
        out: Dict = {
            "executed": self.executed,
            "sample_name": self.sample_name,
            "sample_version": self.sample_version,
            "predicted_cv": self.predicted_cv,
            "max_group_cv": self.max_group_cv,
            "cv_columns": (
                list(self.cv_columns)
                if self.cv_columns is not None
                else None
            ),
            "staleness": self.staleness,
            "window_bounds": (
                list(self.window_bounds)
                if self.window_bounds is not None
                else None
            ),
            "drift": self.drift,
            "needs_rebuild": self.needs_rebuild,
            "fallback_exact": self.fallback_exact,
            "reason": self.reason,
            "constraints": dict(self.constraints),
            "satisfied": self.satisfied,
        }
        if (
            self.group_cvs is not None
            and self.group_keys is not None
            and len(self.group_cvs) <= max_groups
        ):
            out["group_cvs"] = {
                "|".join(str(part) for part in key): cv
                for key, cv in zip(self.group_keys, self.group_cvs)
            }
        return out


@dataclass
class ContractedResult:
    """An answered query bundled with its accuracy contract."""

    result: "AQPResult"  # noqa: F821 — repro.aqp.session.AQPResult
    contract: AccuracyContract

    @property
    def table(self):
        """The answer table (same object as ``result.table``)."""
        return self.result.table


def build_contract(
    route,
    mode: str,
    max_cv: Optional[float],
    max_staleness: Optional[float],
    *,
    sample_version: Optional[str],
    lineage: Dict,
    staleness: float,
    group_keys: Optional[Tuple[Tuple, ...]],
    window_bounds: Optional[Tuple[int, int]] = None,
):
    """Contract + violation list for one routing decision.

    Called by :class:`~repro.warehouse.service.WarehouseService` for
    either topology. ``route`` is an
    :class:`~repro.aqp.session.RouteDecision`;
    ``sample_version``/``lineage``/``staleness``/``group_keys``
    describe the served sample (merged across shards when sharded) and
    are ignored for exact routes. Returns ``(contract, violations)``.
    """
    constraints: Dict[str, float] = {}
    if max_cv is not None:
        constraints["max_cv"] = float(max_cv)
    if max_staleness is not None:
        constraints["max_staleness"] = float(max_staleness)
    if not route.approximate:
        return (
            AccuracyContract(
                executed="exact",
                # Exact by the router's hand, not the caller's, is a
                # fallback worth flagging.
                fallback_exact=mode != "exact",
                reason=route.reason,
                constraints=constraints,
                satisfied=True,
            ),
            [],
        )
    name = route.sample_name
    violations = []
    cv_bound = route.max_group_cv
    if max_cv is not None and cv_bound is not None and cv_bound > max_cv:
        covered = (
            f" on column(s) {', '.join(route.cv_columns)}"
            if route.cv_columns
            else ""
        )
        violations.append(
            f"predicted per-group CV {cv_bound:.4f} of sample "
            f"{name!r}{covered} exceeds max_cv {max_cv:.4f}"
        )
    if max_staleness is not None and staleness > max_staleness:
        violations.append(
            f"staleness {staleness:.4f} of sample {name!r} exceeds "
            f"max_staleness {max_staleness:.4f}"
        )
    contract = AccuracyContract(
        executed="approximate",
        sample_name=name,
        sample_version=sample_version,
        predicted_cv=route.predicted_cv,
        max_group_cv=cv_bound,
        cv_columns=route.cv_columns,
        group_cvs=route.group_cvs,
        group_keys=group_keys,
        staleness=staleness,
        window_bounds=(
            (int(window_bounds[0]), int(window_bounds[1]))
            if window_bounds is not None
            else None
        ),
        drift=float(lineage.get("drift", 1.0)),
        needs_rebuild=bool(lineage.get("needs_rebuild", False)),
        fallback_exact=False,
        reason=route.reason,
        constraints=constraints,
        satisfied=not violations,
    )
    return contract, violations


class AccuracyContractViolation(Exception):
    """No answer satisfying the caller's accuracy constraints exists.

    Raised when constraints are violated and the caller asked for
    rejection rather than exact fallback (``on_violation="reject"``, or
    ``mode="approx"`` where exact execution is off the table). Carries
    the offending :class:`AccuracyContract` and the individual
    violation messages so servers can return a structured 412.
    """

    def __init__(self, violations: List[str], contract: AccuracyContract):
        self.violations = list(violations)
        self.contract = contract
        super().__init__("; ".join(self.violations))
