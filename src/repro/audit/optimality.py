"""The optimality oracle: heuristic schedules judged against exact minima.

The invariant oracles in :mod:`repro.audit.oracle` check that a schedule
is *legal*; this one checks that the heuristic's outcome is *justified*.
The exact backend's :meth:`~repro.exact.ExactScheduler.minimum_ii` search
returns a certificate — the first satisfiable interval together with UNSAT
proofs for everything below it — so "the heuristic found II=7" becomes a
testable claim with four honest outcomes:

``optimal``
    The heuristic's II equals the proven minimum.
``gap``
    The heuristic scheduled, but above the minimum.  Not a violation —
    the heuristic is allowed to be suboptimal — but counted and sized so
    regressions in schedule quality are visible.
``decline_confirmed``
    The heuristic declined and the exact backend *proved* every interval
    up to the cap infeasible: the decline was forced, not a search
    failure.
``decline_missed``
    The heuristic declined but a feasible schedule exists within the same
    cap.  Also not a violation (a heuristic may give up), but the most
    interesting quality signal this oracle produces.

Two situations are genuine :class:`~repro.audit.oracle.Violation`\\ s: the
heuristic "scheduling" below the proven minimum (one of the two sides is
wrong), and the exact backend's own decoded schedule failing the invariant
oracles (the encoding is wrong).  A blown solver budget yields ``budget``
and verifies nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.audit.oracle import Violation, _report, audit_result
from repro.core.pipeliner import EXACT_MAX_CONFLICTS, PipelinerPolicy
from repro.core.schedule import SchedulingFailure
from repro.deps.graph import DepGraph
from repro.machine.description import MachineDescription
from repro.obs import trace as obs

#: Violation kind for optimality contradictions (one of the schedulers is
#: provably wrong, we do not know which from the outside).
OPTIMALITY = "optimality"

#: The classifications an optimality check can land on.
CLASSIFICATIONS = (
    "optimal",
    "gap",
    "decline_confirmed",
    "decline_missed",
    "budget",
    "violation",
)


@dataclass
class OptimalityReport:
    """One graph's heuristic-vs-exact verdict."""

    classification: str
    heuristic_ii: Optional[int] = None
    exact_ii: Optional[int] = None
    mii: Optional[int] = None
    cap: int = 0
    #: ``heuristic_ii - exact_ii`` when both scheduled, else 0.
    gap: int = 0
    #: Interval -> solver verdict, from the exact search.
    statuses: dict[int, str] = field(default_factory=dict)
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def verified(self) -> bool:
        """Whether the exact side produced a certificate (i.e. anything
        other than a blown budget)."""
        return self.classification != "budget"


def audit_optimality(
    graph: DepGraph,
    machine: MachineDescription,
    *,
    policy: PipelinerPolicy = PipelinerPolicy(),
    max_conflicts: int = EXACT_MAX_CONFLICTS,
) -> OptimalityReport:
    """Schedule ``graph`` with both backends and reconcile the outcomes.

    The exact side is :meth:`~repro.exact.ExactScheduler.search` from MII
    to the cap, the search :meth:`~repro.exact.ExactScheduler.minimum_ii`
    runs, which never reads the heuristic's schedule — an answer seeded by
    the very scheduler under audit would make the oracle vacuous.  Both
    sides read one prepared graph, so they start from the same MII.
    """
    from repro.exact import ExactScheduler

    exact = ExactScheduler(machine, policy, max_conflicts=max_conflicts)
    prepared = exact.heuristic.prepare(graph)
    try:
        heuristic_ii: Optional[int] = exact.heuristic.search(prepared).ii
    except SchedulingFailure:
        heuristic_ii = None
    outcome = exact.search(prepared)

    report = OptimalityReport(
        classification="budget",
        heuristic_ii=heuristic_ii,
        exact_ii=outcome.ii,
        mii=outcome.mii.mii if outcome.mii else None,
        cap=outcome.cap,
        statuses=dict(outcome.statuses),
    )
    obs.count("optimality_checks")

    if outcome.optimal:
        assert outcome.result is not None and outcome.ii is not None
        report.violations += audit_result(outcome.result)
        if heuristic_ii is None:
            report.classification = "decline_missed"
        elif heuristic_ii < outcome.ii:
            report.classification = "violation"
            _report(
                report.violations, OPTIMALITY, f"graph at II {heuristic_ii}",
                f"heuristic scheduled below the exact backend's proven"
                f" minimum {outcome.ii}",
            )
        elif heuristic_ii == outcome.ii:
            report.classification = "optimal"
        else:
            report.classification = "gap"
            report.gap = heuristic_ii - outcome.ii
        if report.violations and report.classification != "violation":
            report.classification = "violation"
    elif outcome.proved_infeasible:
        if heuristic_ii is not None:
            report.classification = "violation"
            _report(
                report.violations, OPTIMALITY, f"graph at II {heuristic_ii}",
                f"heuristic scheduled an interval the exact backend proved"
                f" infeasible up to cap {outcome.cap}",
            )
        else:
            report.classification = "decline_confirmed"

    obs.count(f"optimality_{report.classification}")
    if report.gap:
        obs.count("optimality_gap_total", report.gap)
    return report
