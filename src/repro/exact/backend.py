"""The exact scheduling backend: minimum-II search over SAT calls.

:class:`ExactScheduler` implements the :class:`~repro.core.pipeliner`
``SchedulerBackend`` contract.  Each probe of a candidate initiation
interval encodes the full modulo-scheduling constraint system
(:mod:`repro.exact.encode`) and hands it to the vendored CDCL solver.
Probes run from MII upward, so the first satisfiable interval is the
*provably minimum* II: every smaller interval was either below a certified
lower bound (resource or recurrence MII) or refuted by an UNSAT proof.

Every search starts from one
:meth:`~repro.core.pipeliner.ModuloScheduler.prepare` of the graph: its
MII is where the probes start, and its SCC closures give the encoder its
time windows.  Two searches share that interval loop.
:meth:`ExactScheduler.minimum_ii` probes up to the cap and never reads
the heuristic's schedule; its outcome is the optimality certificate
:mod:`repro.audit.optimality` and the ``optimality_gap`` benchmark metric
consume.  :meth:`ExactScheduler.schedule` first runs the heuristic's
search on the same prepared graph and keeps its schedule as the
incumbent, then probes only the intervals below the incumbent's: a loop
the heuristic schedules at MII costs no SAT call.

Solving is exponential in the worst case, so every solver call runs under
a conflict budget and the encoder refuses formulas beyond its size caps
(``MAX_TIME_SLOTS``, ``MAX_CLAUSES``).  Either ends a search as an
``unknown``/``too_large`` outcome; :meth:`~ExactScheduler.schedule` then
keeps the incumbent.  Either way the result records the search's terminal
status in :attr:`~repro.core.pipeliner.PipelineResult.exact_search`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.cyclic import Cluster
from repro.core.mii import MiiReport
from repro.core.pipeliner import (
    EXACT_MAX_CONFLICTS,
    ModuloScheduler,
    PipelineResult,
    PipelinerPolicy,
    PreparedGraph,
)
from repro.core.schedule import KernelSchedule, SchedulingFailure
from repro.deps.graph import DepGraph
from repro.exact.encode import EncodingTooLarge, ModuloCnf
from repro.exact.solver import SAT, UNKNOWN, CdclSolver, SolveResult
from repro.machine.description import MachineDescription
from repro.obs import trace as obs

#: Terminal statuses of one exact minimum-II search.
OPTIMAL = "optimal"          # found and proved the minimum feasible II
INFEASIBLE = "infeasible"    # every probed II refuted by UNSAT
BUDGET = "unknown"           # a solver call exhausted its conflict budget
TOO_LARGE = "too_large"      # an encoding exceeds the encoder's size caps


@dataclass
class ExactOutcome:
    """The full record of one minimum-II search.

    ``statuses`` maps each probed interval to its solver verdict
    (``"sat"``, ``"unsat"`` or ``"unknown"``); probes start at MII, which
    is never below the recurrence bound, so the closures refute nothing
    the solver would have to.  ``ii``/``result`` are set only for
    :data:`OPTIMAL`.  :data:`INFEASIBLE` covers the probed intervals only:
    up to ``cap`` for :meth:`ExactScheduler.minimum_ii`, below the
    incumbent's II for :meth:`ExactScheduler.schedule` (none at all when
    the incumbent is at MII).
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

    :attr:`heuristic` does two jobs: its
    :meth:`~repro.core.pipeliner.ModuloScheduler.prepare` is the one
    analysis of the graph every search reads (MII, SCC closures), and its
    :meth:`~repro.core.pipeliner.ModuloScheduler.search` on that same
    prepared graph gives the incumbent :meth:`schedule` tries to beat.
    ``max_conflicts`` is the solver's conflict budget per interval.
    """

    name = "exact"

    def __init__(
        self,
        machine: MachineDescription,
        policy: PipelinerPolicy = PipelinerPolicy(),
        *,
        max_conflicts: int = EXACT_MAX_CONFLICTS,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.max_conflicts = max_conflicts
        self.heuristic = ModuloScheduler(machine, policy)

    # -- SchedulerBackend protocol --------------------------------------------

    def schedule(self, graph: DepGraph) -> PipelineResult:
        """The heuristic's schedule, replaced by the minimum-II SAT model
        when one exists below it.

        Only intervals below the incumbent's are probed, so the result's
        II never exceeds the heuristic's; its ``exact_search`` is the
        search's terminal status.  Raises :class:`SchedulingFailure` only
        when the heuristic declines and the SAT search finds no schedule
        up to the cap either.
        """
        prepared = self.heuristic.prepare(graph)
        incumbent: Optional[PipelineResult]
        try:
            incumbent = self.heuristic.search(prepared)
        except SchedulingFailure:
            incumbent = None
        outcome = self.search(
            prepared, None if incumbent is None else incumbent.ii - 1
        )
        if outcome.optimal:
            assert outcome.result is not None
            return outcome.result
        if incumbent is not None:
            return replace(incumbent, exact_search=outcome.status)
        if outcome.proved_infeasible:
            raise SchedulingFailure(
                f"exact backend proved initiation intervals"
                f" {prepared.mii.mii}..{outcome.cap} infeasible",
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
        return self.search(self.heuristic.prepare(graph))

    def search(
        self, prepared: PreparedGraph, last: Optional[int] = None
    ) -> ExactOutcome:
        """Probe intervals from MII up to ``last`` (the cap when ``None``)
        on an already prepared graph, stopping at the first verdict that
        is not a refutation."""
        mii = prepared.mii
        cap = self.policy.max_ii or self.heuristic.default_cap(prepared.graph)
        outcome = ExactOutcome(status=INFEASIBLE, mii=mii, cap=cap)
        for s in range(mii.mii, (cap if last is None else last) + 1):
            obs.count("exact_ii_attempts")
            verdict, times, solved = self._attempt(prepared, s)
            if verdict == TOO_LARGE:
                outcome.status = TOO_LARGE
                return outcome
            outcome.statuses[s] = verdict
            outcome.conflicts += solved.conflicts
            outcome.decisions += solved.decisions
            if verdict == SAT:
                outcome.status = OPTIMAL
                outcome.ii = s
                outcome.result = self._package(
                    prepared, s, times, sorted(outcome.statuses)
                )
                return outcome
            if verdict == UNKNOWN:
                outcome.status = BUDGET
                return outcome
        return outcome

    def _attempt(
        self, prepared: PreparedGraph, s: int
    ) -> tuple[str, Optional[dict[int, int]], Optional[SolveResult]]:
        """One SAT attempt at interval ``s``.

        Returns the verdict (``"sat"``, ``"unsat"``, ``"unknown"``, or
        :data:`TOO_LARGE`), the decoded start times on ``"sat"``, and the
        solver's result whenever the solver ran.
        """
        try:
            encoding = ModuloCnf(prepared, self.machine, s)
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
        prepared: PreparedGraph,
        s: int,
        times: dict[int, int],
        attempts: list[int],
    ) -> PipelineResult:
        """A decoded SAT model as a :class:`PipelineResult`.

        The SAT encoding places nodes individually, so every node becomes
        its own singleton cluster (base time = its schedule time, offset 0)
        — exactly the shape downstream emission and the cluster audit
        expect for unclustered nodes.
        """
        graph = prepared.graph
        clusters = [
            Cluster([node], {node.index: 0}, node.reservation)
            for node in graph.nodes
        ]
        schedule = KernelSchedule(
            graph, self.machine, s, dict(times), prepared.mii, list(attempts)
        )
        return PipelineResult(
            schedule, clusters, prepared, exact_search=OPTIMAL
        )
