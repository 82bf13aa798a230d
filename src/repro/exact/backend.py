"""The exact scheduling backend: minimum-II search over SAT calls.

:class:`ExactScheduler` implements the :class:`~repro.core.pipeliner`
``SchedulerBackend`` contract.  Each probe of a candidate initiation
interval encodes the full modulo-scheduling constraint system
(:mod:`repro.exact.encode`) and hands it to the vendored CDCL solver.
Probes run from MII upward, so the first satisfiable interval is the
*provably minimum* II: every smaller interval was either below a certified
lower bound (resource or recurrence MII) or refuted by an UNSAT proof.

Two searches share that interval loop.  :meth:`ExactScheduler.minimum_ii`
probes up to the cap and never reads the heuristic's schedule; its
outcome is the optimality certificate :mod:`repro.audit.optimality` and
the ``optimality_gap`` benchmark metric consume.
:meth:`ExactScheduler.schedule` first runs the heuristic and keeps its
schedule as the incumbent, then probes only the intervals below the
incumbent's: a loop the heuristic schedules at MII costs no SAT call.

Solving is exponential in the worst case, so every solver call runs under
a conflict budget and the encoder refuses formulas beyond its size caps
(``MAX_TIME_SLOTS``, ``MAX_CLAUSES``).  Either ends a search as an
``unknown``/``too_large`` outcome; :meth:`~ExactScheduler.schedule` then
keeps the incumbent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cyclic import Cluster
from repro.core.mii import MiiReport
from repro.core.pipeliner import (
    EXACT_MAX_CONFLICTS,
    ModuloScheduler,
    PipelineResult,
    PipelinerPolicy,
)
from repro.core.schedule import KernelSchedule, SchedulingFailure
from repro.deps.graph import DepGraph
from repro.exact.encode import EncodingTooLarge, InfeasibleInterval, ModuloCnf
from repro.exact.solver import SAT, UNKNOWN, CdclSolver, SolveResult
from repro.machine.description import MachineDescription
from repro.obs import trace as obs

#: Terminal statuses of one exact minimum-II search.
OPTIMAL = "optimal"          # found and proved the minimum feasible II
INFEASIBLE = "infeasible"    # every probed II refuted (closure or UNSAT)
BUDGET = "unknown"           # a solver call exhausted its conflict budget
TOO_LARGE = "too_large"      # an encoding exceeds the encoder's size caps


@dataclass
class ExactOutcome:
    """The full record of one minimum-II search.

    ``statuses`` maps each probed interval to its verdict (``"sat"``,
    ``"unsat"``, ``"recurrence"`` for closure-certified infeasibility, or
    ``"unknown"``); ``ii``/``result`` are set only for :data:`OPTIMAL`.
    :data:`INFEASIBLE` covers the probed intervals only: up to ``cap`` for
    :meth:`ExactScheduler.minimum_ii`, below the incumbent's II for
    :meth:`ExactScheduler.schedule`.
    """

    status: str
    ii: Optional[int] = None
    result: Optional[PipelineResult] = None
    mii: Optional[MiiReport] = None
    cap: int = 0
    statuses: dict[int, str] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0

    @property
    def optimal(self) -> bool:
        return self.status == OPTIMAL

    @property
    def proved_infeasible(self) -> bool:
        return self.status == INFEASIBLE


class ExactScheduler:
    """Exact modulo scheduler over the vendored SAT solver.

    Satisfies the ``SchedulerBackend`` protocol: :meth:`schedule` returns
    a :class:`~repro.core.pipeliner.PipelineResult` or raises
    :class:`SchedulingFailure` on a decline, as
    :class:`~repro.core.pipeliner.ModuloScheduler` does, while
    :meth:`minimum_ii` exposes the certificate-carrying search the
    optimality oracle needs.

    The heuristic scheduler passed in (or constructed) does two jobs: its
    memoized :meth:`~repro.core.pipeliner.ModuloScheduler.prepare`
    supplies the MII bounds every search starts from, and its schedule is
    the incumbent :meth:`schedule` tries to beat.  ``max_conflicts`` is
    the solver's conflict budget per interval.
    """

    name = "exact"

    def __init__(
        self,
        machine: MachineDescription,
        policy: PipelinerPolicy = PipelinerPolicy(),
        *,
        max_conflicts: int = EXACT_MAX_CONFLICTS,
        heuristic: Optional[ModuloScheduler] = None,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.max_conflicts = max_conflicts
        self.heuristic = heuristic or ModuloScheduler(machine, policy)

    # -- SchedulerBackend protocol --------------------------------------------

    def schedule(self, graph: DepGraph) -> PipelineResult:
        """The heuristic's schedule, replaced by the minimum-II SAT model
        when one exists below it.

        Only intervals below the incumbent's are probed, so the result's
        II never exceeds the heuristic's.  Raises
        :class:`SchedulingFailure` only when the heuristic declines and
        the SAT search finds no schedule up to the cap either.
        """
        incumbent: Optional[PipelineResult]
        try:
            incumbent = self.heuristic.schedule(graph)
        except SchedulingFailure:
            incumbent = None
        outcome = self._search(
            graph, None if incumbent is None else incumbent.ii - 1
        )
        if outcome.optimal:
            assert outcome.result is not None
            return outcome.result
        if incumbent is not None:
            return incumbent
        if outcome.proved_infeasible:
            raise SchedulingFailure(
                f"exact backend proved initiation intervals"
                f" {outcome.mii.mii if outcome.mii else '?'}..{outcome.cap}"
                f" infeasible",
                sorted(outcome.statuses),
            )
        raise SchedulingFailure(
            f"exact backend exceeded its budget ({outcome.status})"
            f" after the heuristic declined",
            sorted(outcome.statuses),
        )

    # -- the certificate-carrying search --------------------------------------

    def minimum_ii(self, graph: DepGraph) -> ExactOutcome:
        """Search initiation intervals from MII up to the cap.

        Never reads the heuristic's schedule: the outcome says exactly what
        was proved, so the optimality oracle can tell "minimum is 7" from
        "gave up" for the very scheduler it audits.
        """
        return self._search(graph, None)

    def _search(self, graph: DepGraph, last: Optional[int]) -> ExactOutcome:
        """Probe intervals from MII up to ``last`` (the cap when ``None``),
        stopping at the first verdict that is not a refutation."""
        _, mii = self.heuristic.prepare(graph)
        cap = self.policy.max_ii or self.heuristic.default_cap(graph)
        outcome = ExactOutcome(status=INFEASIBLE, mii=mii, cap=cap)
        for s in range(max(1, mii.mii), (cap if last is None else last) + 1):
            obs.count("exact_ii_attempts")
            verdict, times, solved = self._attempt(graph, s)
            if verdict == TOO_LARGE:
                outcome.status = TOO_LARGE
                return outcome
            outcome.statuses[s] = verdict
            if solved is not None:
                outcome.conflicts += solved.conflicts
                outcome.decisions += solved.decisions
            if verdict == SAT:
                outcome.status = OPTIMAL
                outcome.ii = s
                outcome.result = self._package(
                    graph, s, times, mii, sorted(outcome.statuses)
                )
                return outcome
            if verdict == UNKNOWN:
                outcome.status = BUDGET
                return outcome
        return outcome

    def _attempt(
        self, graph: DepGraph, s: int
    ) -> tuple[str, Optional[dict[int, int]], Optional[SolveResult]]:
        """One SAT attempt at interval ``s``.

        Returns the verdict (``"sat"``, ``"unsat"``, ``"unknown"``,
        ``"recurrence"`` when the closure already refutes ``s``, or
        :data:`TOO_LARGE`), the decoded start times on ``"sat"``, and the
        solver's result whenever the solver ran.
        """
        try:
            encoding = ModuloCnf(graph, self.machine, s)
        except InfeasibleInterval:
            return "recurrence", None, None
        except EncodingTooLarge:
            obs.count("exact_too_large")
            return TOO_LARGE, None, None
        obs.count("exact_vars", encoding.num_vars)
        obs.count("exact_clauses", len(encoding.clauses))
        solved = CdclSolver(
            encoding.num_vars,
            encoding.clauses,
            max_conflicts=self.max_conflicts,
        ).solve()
        obs.count("exact_sat_calls")
        if solved.status == SAT:
            return SAT, encoding.decode(solved.model), solved
        if solved.status == UNKNOWN:
            obs.count("exact_budget_exhausted")
        return solved.status, None, solved

    # -- decoding to the shared result type -----------------------------------

    def _package(
        self,
        graph: DepGraph,
        s: int,
        times: dict[int, int],
        mii: MiiReport,
        attempts: list[int],
    ) -> PipelineResult:
        """A decoded SAT model as a :class:`PipelineResult`.

        The SAT encoding places nodes individually, so every node becomes
        its own singleton cluster (base time = its schedule time, offset 0)
        — exactly the shape downstream emission and the cluster audit
        expect for unclustered nodes.
        """
        clusters = [
            Cluster([node], {node.index: 0}, node.reservation)
            for node in graph.nodes
        ]
        schedule = KernelSchedule(
            graph, self.machine, s, dict(times), mii, list(attempts)
        )
        return PipelineResult(schedule, clusters)
