"""The exact modulo-scheduling backend: CNF encoding plus a vendored solver.

Lam's scheduler is a heuristic by design — it trades optimality for the
compile times a production compiler needs, and the committed benchmark
baseline quantifies the cost (about 15% of scheduled fuzz units land above
MII, a handful decline outright).  Roorda's SMT-solver pipeliner and the
SAT-MapIt line of work show that at the loop sizes this reproduction
handles, the *exact* formulation is perfectly tractable: per candidate
initiation interval the modulo-scheduling constraints are a finite-domain
assignment problem, and a SAT solver either finds a schedule or proves the
interval infeasible.

This package implements that formulation with no external dependency:

* :mod:`repro.exact.solver` — a small conflict-driven clause-learning
  (CDCL) SAT solver: two-watched-literal propagation, first-UIP conflict
  analysis, activity-driven decisions from an order heap, restarts, and a
  conflict budget so callers can bound worst-case solve time;
* :mod:`repro.exact.cnf` — the CNF formula builder and the one checker of
  the clause contract the solver relies on, including the
  sequential-counter cardinality encoding used for multi-unit resources;
* :mod:`repro.exact.encode` — the modulo-scheduling encoding at one fixed
  initiation interval: order-encoded per-node time windows read off the
  scheduler's prepared SCC closures, precedence clauses
  ``sigma(v) - sigma(u) >= d - omega * s``, and per-modulo-row resource
  cardinality constraints derived from the machine description;
* :mod:`repro.exact.backend` — :class:`ExactScheduler`, a drop-in
  :class:`~repro.core.pipeliner.SchedulerBackend` that prepares each graph
  once, starts from the heuristic's schedule, searches the initiation
  intervals below it from MII upward, and decodes the first satisfiable
  model into a :class:`~repro.core.pipeliner.PipelineResult`.  When no
  smaller interval is satisfiable, or the conflict budget or the encoder's
  size caps end the search, the heuristic's schedule stands, and the
  result's ``exact_search`` says which of these ended the search.

The backend serves three distinct jobs: closing real II gaps on small
loops (``--scheduler-backend exact``), acting as the differential
optimality oracle in :mod:`repro.audit.optimality`, and feeding the
per-suite ``optimality_gap`` metric in ``python -m repro bench``.
"""

from repro.exact.backend import ExactOutcome, ExactScheduler
from repro.exact.cnf import Cnf
from repro.exact.encode import EncodingTooLarge, ModuloCnf
from repro.exact.solver import SAT, UNKNOWN, UNSAT, CdclSolver, SolveResult

__all__ = [
    "Cnf",
    "CdclSolver",
    "EncodingTooLarge",
    "ExactOutcome",
    "ExactScheduler",
    "ModuloCnf",
    "SAT",
    "SolveResult",
    "UNKNOWN",
    "UNSAT",
]
