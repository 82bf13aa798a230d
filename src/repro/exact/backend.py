"""The exact scheduling backend: minimum-II search over SAT calls.

:class:`ExactScheduler` implements the :class:`~repro.core.pipeliner`
``SchedulerBackend`` contract.  It probes candidate initiation intervals
from MII upward; each probe encodes the full modulo-scheduling constraint
system (:mod:`repro.exact.encode`) and hands it to the vendored CDCL
solver.  The first satisfiable interval is the *provably minimum* II: every
smaller interval was either below a certified lower bound (resource or
recurrence MII) or refuted by an UNSAT proof.

Unlike the heuristic, a completed search is an optimality certificate —
which is what :mod:`repro.audit.optimality` and the ``optimality_gap``
benchmark metric consume.  The price is worst-case exponential solving, so
every call runs under an :class:`ExactBudget`; a blown budget either falls
back to the heuristic scheduler (the compilation path) or surfaces as an
``unknown``/``too_large`` outcome (the audit path, where a silent fallback
would corrupt the oracle's claim).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.cyclic import Cluster
from repro.core.mii import MiiReport
from repro.core.pipeliner import (
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
INFEASIBLE = "infeasible"    # every II up to the cap refuted by UNSAT proof
BUDGET = "unknown"           # a solver call exhausted its conflict budget
TOO_LARGE = "too_large"      # the loop or its encoding exceeds the budget


@dataclass(frozen=True)
class ExactBudget:
    """Size and effort caps for one exact-backend invocation.

    The defaults comfortably cover the fuzz/audit graph sizes (4-10 nodes)
    with headroom; production-shaped loops beyond them fall back to the
    heuristic rather than risk an exponential solve.  The encoding's own
    size caps are :mod:`repro.exact.encode` constants.
    """

    max_nodes: int = 24
    max_conflicts: int = 20_000

    def __post_init__(self) -> None:
        if self.max_nodes < 1:
            raise ValueError("max_nodes must be positive")
        if self.max_conflicts < 1:
            raise ValueError("max_conflicts must be positive")


@dataclass
class ExactOutcome:
    """The full record of one minimum-II search.

    ``statuses`` maps each probed interval to its verdict (``"sat"``,
    ``"unsat"``, ``"recurrence"`` for closure-certified infeasibility, or
    ``"unknown"``); ``ii``/``result`` are set only for :data:`OPTIMAL`.
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

    Satisfies the ``SchedulerBackend`` protocol: :meth:`schedule` and
    :meth:`schedule_at` mirror :class:`~repro.core.pipeliner.ModuloScheduler`
    (including raising :class:`SchedulingFailure` on declines), while
    :meth:`minimum_ii` exposes the certificate-carrying search the
    optimality oracle needs.

    The heuristic scheduler passed in (or constructed) is used for two
    things: its memoized :meth:`~repro.core.pipeliner.ModuloScheduler.prepare`
    supplies the MII bounds the search starts from, and it is the fallback
    when ``fallback=True`` and the budget runs out.
    """

    name = "exact"

    def __init__(
        self,
        machine: MachineDescription,
        policy: PipelinerPolicy = PipelinerPolicy(),
        *,
        budget: ExactBudget = ExactBudget(),
        fallback: bool = True,
        heuristic: Optional[ModuloScheduler] = None,
    ) -> None:
        self.machine = machine
        self.policy = policy
        self.budget = budget
        self.fallback = fallback
        self.heuristic = heuristic or ModuloScheduler(machine, policy)

    # -- the certificate-carrying search --------------------------------------

    def minimum_ii(self, graph: DepGraph) -> ExactOutcome:
        """Search initiation intervals from MII up to the cap.

        Never falls back: the outcome says exactly what was proved, so the
        optimality oracle can distinguish "minimum is 7" from "gave up".
        """
        _, mii = self.heuristic.prepare(graph)
        cap = self.policy.max_ii or self.heuristic.default_cap(graph)
        outcome = ExactOutcome(status=INFEASIBLE, mii=mii, cap=cap)
        if len(graph.nodes) > self.budget.max_nodes:
            obs.count("exact_too_large")
            outcome.status = TOO_LARGE
            return outcome
        for s in range(max(1, mii.mii), cap + 1):
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
            max_conflicts=self.budget.max_conflicts,
        ).solve()
        obs.count("exact_sat_calls")
        if solved.status == SAT:
            return SAT, encoding.decode(solved.model), solved
        if solved.status == UNKNOWN:
            obs.count("exact_budget_exhausted")
        return solved.status, None, solved

    # -- SchedulerBackend protocol --------------------------------------------

    def schedule(self, graph: DepGraph) -> PipelineResult:
        """Minimum-II schedule, falling back to the heuristic when the
        budget runs out (and ``fallback`` is on).

        Raises :class:`SchedulingFailure` when every interval up to the cap
        is proved infeasible — the exact backend's decline is a theorem,
        not a heuristic giving up.
        """
        outcome = self.minimum_ii(graph)
        if outcome.optimal:
            assert outcome.result is not None
            return outcome.result
        if outcome.proved_infeasible:
            raise SchedulingFailure(
                f"exact backend proved initiation intervals"
                f" {outcome.mii.mii if outcome.mii else '?'}..{outcome.cap}"
                f" infeasible",
                sorted(outcome.statuses),
            )
        if self.fallback:
            obs.count("exact_fallbacks")
            return self.heuristic.schedule(graph)
        raise SchedulingFailure(
            f"exact backend exceeded its budget ({outcome.status})"
            f" and fallback is disabled",
            sorted(outcome.statuses),
        )

    def schedule_at(self, graph: DepGraph, s: int) -> Optional[PipelineResult]:
        """Attempt exactly one initiation interval (``None`` if refuted)."""
        _, mii = self.heuristic.prepare(graph)
        if s < mii.recurrence:
            return None
        if len(graph.nodes) > self.budget.max_nodes:
            obs.count("exact_too_large")
            verdict, times = TOO_LARGE, None
        else:
            verdict, times, _ = self._attempt(graph, s)
        if verdict == SAT:
            return self._package(graph, s, times, mii, [s])
        if verdict in (TOO_LARGE, UNKNOWN):
            return (
                self.heuristic.schedule_at(graph, s) if self.fallback else None
            )
        return None

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
