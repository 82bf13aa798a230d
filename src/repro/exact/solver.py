"""A small conflict-driven clause-learning SAT solver.

Vendored so the exact scheduling backend has no dependency beyond the
standard library.  The design is the classic MiniSat recipe, sized for the
formulas :mod:`repro.exact.encode` produces (thousands of variables, tens
of thousands of clauses):

* two-watched-literal unit propagation;
* first-UIP conflict analysis with non-chronological backjumping;
* exponential variable-activity decisions (a simplified VSIDS) with
  phase saving.  The next decision comes from an order heap, as in
  MiniSat: a ``heapq`` of ``(-activity, var)`` with lazy deletion, so a
  decision costs a few pops instead of a scan of every variable.  It picks
  exactly what the scan would: the most active unassigned variable, the
  lowest-numbered one on ties;
* geometric restarts;
* a *conflict budget*: the solver gives up with :data:`UNKNOWN` once the
  budget is exhausted, so a caller can bound worst-case solve time and
  fall back to the heuristic scheduler.

Literals are nonzero ints in DIMACS convention: ``v`` is variable ``v``
true, ``-v`` is variable ``v`` false.  Variables are numbered from 1.

Clause contract: every literal names a variable in ``1..num_vars`` and no
clause names a variable twice (no repeated literal, no tautology).
:meth:`repro.exact.cnf.Cnf.add` checks the range and the encoder keeps the
rest; the solver checks neither.  It watches the caller's clause lists in
place, without a copy, and reorders literals inside them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_ACTIVITY_DECAY = 0.95
_ACTIVITY_RESCALE = 1e100


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``model`` is only present for :data:`SAT`: a dict mapping every
    variable to its boolean value.  The statistics are cumulative over the
    run and feed the ``exact_*`` observability counters.
    """

    status: str
    model: dict[int, bool] = field(default_factory=dict)
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0

    def __getitem__(self, var: int) -> bool:
        return self.model[var]


class CdclSolver:
    """One-shot CDCL solver over a fixed clause set.

    ``clauses`` must keep the module's clause contract.  The solver takes
    them over: their literal order changes as watches move, so pass a copy
    to solve the same formula again with the same search.
    """

    def __init__(
        self,
        num_vars: int,
        clauses: Sequence[list[int]],
        *,
        max_conflicts: Optional[int] = None,
    ) -> None:
        self.num_vars = num_vars
        self.max_conflicts = max_conflicts
        # assignment[v] is 0 unassigned, +1 true, -1 false.
        self._assign = [0] * (num_vars + 1)
        self._level = [0] * (num_vars + 1)
        self._reason: list[Optional[list[int]]] = [None] * (num_vars + 1)
        self._phase = [False] * (num_vars + 1)
        self._activity = [0.0] * (num_vars + 1)
        self._bump = 1.0
        # Decision order: (-activity, var), so the heap's minimum is the
        # most active variable, ties to the lowest index.  Entries are not
        # removed when a variable is assigned or bumped; see _decide.
        self._order: list[tuple[float, int]] = []
        self._rebuild_order()
        self._seen = [False] * (num_vars + 1)
        # Watch lists indexed by literal: v at [v], -v at [-v], which
        # Python maps to [2 * num_vars + 1 - v], clear of every positive.
        self._watches: list[list[list[int]]] = [
            [] for _ in range(2 * num_vars + 1)
        ]
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._contradiction = False
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.restarts = 0
        watches = self._watches
        for clause in clauses:
            if len(clause) > 1:
                watches[clause[0]].append(clause)
                watches[clause[1]].append(clause)
            elif not clause or not self._enqueue(clause[0], None):
                self._contradiction = True
                return

    # -- assignment plumbing --------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[list[int]]) -> bool:
        var = lit if lit > 0 else -lit
        value = self._assign[var]
        if value:
            return (value > 0) == (lit > 0)
        self._assign[var] = 1 if lit > 0 else -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._phase[var] = lit > 0
        self._trail.append(lit)
        return True

    def _propagate(self) -> Optional[list[int]]:
        """Exhaust unit propagation; the falsified clause on conflict."""
        assign = self._assign
        trail = self._trail
        all_watches = self._watches
        level, reason, phase = self._level, self._reason, self._phase
        depth = len(self._trail_lim)
        qhead = start = self._qhead
        conflict = None
        while qhead < len(trail):
            false_lit = -trail[qhead]
            qhead += 1
            watchers = all_watches[false_lit]
            if not watchers:
                continue
            kept: list[list[int]] = []
            for i, clause in enumerate(watchers):
                # Normalize: the falsified watch sits at slot 1.
                if clause[0] == false_lit:
                    clause[0], clause[1] = clause[1], false_lit
                first = clause[0]
                value = assign[first] if first > 0 else -assign[-first]
                if value > 0:
                    kept.append(clause)
                    continue
                for k in range(2, len(clause)):
                    other = clause[k]
                    if (assign[other] if other > 0 else -assign[-other]) >= 0:
                        clause[1], clause[k] = other, false_lit
                        all_watches[other].append(clause)
                        break
                else:
                    kept.append(clause)
                    if value < 0:
                        # Conflict: keep the remaining watchers before leaving.
                        kept.extend(watchers[i + 1:])
                        conflict = clause
                        break
                    var = first if first > 0 else -first
                    assign[var] = 1 if first > 0 else -1
                    level[var] = depth
                    reason[var] = clause
                    phase[var] = first > 0
                    trail.append(first)
            all_watches[false_lit] = kept
            if conflict is not None:
                break
        self.propagations += qhead - start
        self._qhead = qhead
        return conflict

    # -- conflict analysis ----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._bump
        if activity[var] > _ACTIVITY_RESCALE:
            for v in range(1, self.num_vars + 1):
                activity[v] /= _ACTIVITY_RESCALE
            self._bump /= _ACTIVITY_RESCALE
            self._rebuild_order()
        elif not self._assign[var]:
            heapq.heappush(self._order, (-activity[var], var))

    def _rebuild_order(self) -> None:
        """One heap entry per unassigned variable, at its activity now."""
        activity, assign = self._activity, self._assign
        self._order = [
            (-activity[v], v)
            for v in range(1, self.num_vars + 1)
            if not assign[v]
        ]
        heapq.heapify(self._order)

    def _analyze(self, conflict: list[int]) -> tuple[list[int], int]:
        """First-UIP learned clause and the level to backjump to."""
        current_level = len(self._trail_lim)
        level = self._level
        seen = self._seen
        marked: list[int] = []
        learned: list[int] = []
        counter = 0
        lit = 0
        reason: Optional[list[int]] = conflict
        index = len(self._trail)
        while True:
            assert reason is not None
            for other in reason:
                if other == lit:
                    continue
                var = abs(other)
                if seen[var] or level[var] == 0:
                    continue
                seen[var] = True
                marked.append(var)
                self._bump_var(var)
                if level[var] == current_level:
                    counter += 1
                else:
                    learned.append(other)
            # Walk the trail backwards to the next marked literal.
            while True:
                index -= 1
                lit = -self._trail[index]
                if seen[abs(lit)]:
                    break
            counter -= 1
            if counter == 0:
                break
            reason = self._reason[abs(lit)]
        for var in marked:
            seen[var] = False
        learned.insert(0, lit)
        if len(learned) == 1:
            return learned, 0
        back = max(level[abs(other)] for other in learned[1:])
        # Put a literal of the backjump level in the second watch slot.
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == back:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, back

    def _backtrack(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        mark = self._trail_lim[level]
        undone = self._trail[mark:]
        assign, reason = self._assign, self._reason
        for lit in undone:
            var = abs(lit)
            assign[var] = 0
            reason[var] = None
        del self._trail[mark:]
        del self._trail_lim[level:]
        self._qhead = mark
        order = self._order
        if len(order) + len(undone) > 2 * self.num_vars:
            # Entries of assigned variables would pile up; start afresh.
            self._rebuild_order()
        else:
            activity = self._activity
            for lit in undone:
                var = abs(lit)
                heapq.heappush(order, (-activity[var], var))

    # -- decisions ------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        """The most active unassigned variable (lowest index on ties), in
        its saved phase.

        Entries of assigned variables are dropped as they surface.  An
        entry whose activity is stale never surfaces while its variable is
        unassigned: activities only grow between rescales (which rebuild
        the heap), and every unassigned variable has an entry at its
        current activity, which sorts first.
        """
        order = self._order
        assign = self._assign
        while order:
            var = heapq.heappop(order)[1]
            if not assign[var]:
                return var if self._phase[var] else -var
        return None

    # -- the main loop --------------------------------------------------------

    def solve(self) -> SolveResult:
        if self._contradiction:
            return self._result(UNSAT)
        restart_limit = 128
        conflicts_here = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.conflicts += 1
                conflicts_here += 1
                if not self._trail_lim:
                    return self._result(UNSAT)
                if (
                    self.max_conflicts is not None
                    and self.conflicts >= self.max_conflicts
                ):
                    return self._result(UNKNOWN)
                learned, back = self._analyze(conflict)
                self._backtrack(back)
                if len(learned) > 1:
                    self._watches[learned[0]].append(learned)
                    self._watches[learned[1]].append(learned)
                    enqueued = self._enqueue(learned[0], learned)
                else:
                    enqueued = self._enqueue(learned[0], None)
                if not enqueued:
                    return self._result(UNSAT)
                self._bump /= _ACTIVITY_DECAY
                continue
            if conflicts_here >= restart_limit:
                conflicts_here = 0
                restart_limit = int(restart_limit * 1.5)
                self.restarts += 1
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit is None:
                model = {
                    var: self._assign[var] > 0
                    for var in range(1, self.num_vars + 1)
                }
                return self._result(SAT, model)
            self.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, None)

    def _result(self, status: str, model: Optional[dict[int, bool]] = None
                ) -> SolveResult:
        return SolveResult(
            status=status,
            model=model or {},
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            restarts=self.restarts,
        )


def solve(
    num_vars: int,
    clauses: Sequence[list[int]],
    *,
    max_conflicts: Optional[int] = None,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`CdclSolver`."""
    return CdclSolver(num_vars, clauses, max_conflicts=max_conflicts).solve()
