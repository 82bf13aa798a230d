"""CNF formula construction for the exact scheduling backend.

A :class:`Cnf` accumulates clauses over freshly numbered variables and
provides the one nontrivial encoding the modulo-scheduling constraints
need: *at-most-k* over a multiset of literals, via Sinz's sequential
counter.  The counter is linear in ``len(lits) * k`` auxiliary variables
and clauses, and weighted contributions (an operation using two units of a
resource in the same cycle) are expressed simply by repeating the literal.

Clauses go straight to :class:`repro.exact.solver.CdclSolver`, which
watches them in place and trusts :meth:`Cnf.add`'s contract.
"""

from __future__ import annotations

from typing import Iterable


class Cnf:
    """A growing CNF formula: fresh variables plus a clause list."""

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: list[list[int]] = []

    def new_var(self) -> int:
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> range:
        """``count`` fresh variables with consecutive numbers."""
        first = self.num_vars + 1
        self.num_vars += count
        return range(first, self.num_vars + 1)

    def add(self, *lits: int) -> None:
        """Add one clause (a disjunction of the given literals).

        Contract: every literal names an allocated variable (checked
        here: :class:`ValueError` otherwise), and no variable appears twice
        in one clause, so there is no repeated literal and no tautology.
        The solver relies on both; the second is the caller's to keep.
        """
        num_vars = self.num_vars
        for lit in lits:
            if lit == 0 or not -num_vars <= lit <= num_vars:
                raise ValueError(f"literal {lit} names no allocated variable")
        self.clauses.append(list(lits))

    def add_at_most_k(self, lits: Iterable[int], k: int) -> None:
        """Constrain at most ``k`` of ``lits`` to be true (Sinz 2005).

        ``lits`` is a multiset: a literal appearing ``a`` times contributes
        ``a`` to the sum when true, which is how weighted resource usage is
        encoded.  ``k = 0`` forces every literal false; a sum that cannot
        exceed ``k`` adds nothing.
        """
        lits = list(lits)
        if k < 0:
            raise ValueError(f"negative cardinality bound {k}")
        n = len(lits)
        if n <= k:
            return
        if k == 0:
            for lit in lits:
                self.add(-lit)
            return
        # registers[i][j] == "at least j+1 of lits[0..i] are true".
        registers = [self.new_vars(k) for _ in range(n - 1)]
        self.add(-lits[0], registers[0][0])
        for j in range(1, k):
            self.add(-registers[0][j])
        for i in range(1, n - 1):
            self.add(-lits[i], registers[i][0])
            self.add(-registers[i - 1][0], registers[i][0])
            for j in range(1, k):
                self.add(-lits[i], -registers[i - 1][j - 1], registers[i][j])
                self.add(-registers[i - 1][j], registers[i][j])
            self.add(-lits[i], -registers[i - 1][k - 1])
        self.add(-lits[n - 1], -registers[n - 2][k - 1])
