"""Randomized auditing of the modulo-scheduling core.

Lam's pipeline is correct only while three invariants hold at once:

1. *Modulo resources* — no row of the modulo reservation table exceeds the
   machine's per-cycle limits (section 2.1);
2. *Precedence* — every dependence edge satisfies
   ``sigma(v) - sigma(u) >= d(e) - s * p(e)``, including cross-iteration
   edges checked over an expanded flat window covering the prolog and
   epilog ramps (section 2.2);
3. *Expansion* — modulo variable expansion allocates
   ``q_i = ceil(lifetime_i / s)`` locations per expanded register, rounded
   per the unrolling policy (section 2.3).

The scheduler is a heuristic search; SMT/SAT pipeliners earn trust by
validating candidate schedules against machine-checkable constraint
systems, and this package does the same for the heuristic by random
auditing:

* :mod:`repro.audit.generate` — seeded generators of loop programs and of
  raw dependence graphs with controllable size/SCC-density knobs;
* :mod:`repro.audit.oracle` — oracles that re-derive each invariant from a
  :class:`~repro.core.pipeliner.PipelineResult` alone and report
  structured :class:`Violation` records;
* :mod:`repro.audit.differential` — compile -> simulate vs. the scalar
  reference interpreter, plus a per-loop schedule audit;
* :mod:`repro.audit.fuzz` — the campaign driver behind
  ``python -m repro fuzz``, running cases inline or on a process pool
  with per-case fault isolation and :mod:`repro.obs` violation counters.

Every failure prints the single-case seed that reproduces it; confirmed
bug classes get a regression corpus entry under ``tests/corpus/``.
"""

from repro.audit.differential import audit_program
from repro.audit.fuzz import FuzzReport, run_campaign
from repro.audit.optimality import OptimalityReport, audit_optimality
from repro.audit.generate import (
    GraphConfig,
    ProgramConfig,
    random_dep_graph,
    random_program,
)
from repro.audit.oracle import (
    Violation,
    audit_block_schedule,
    audit_expansion,
    audit_modulo_resources,
    audit_precedence,
    audit_result,
    audit_schedule,
    audit_window,
)

__all__ = [
    "FuzzReport",
    "GraphConfig",
    "OptimalityReport",
    "ProgramConfig",
    "Violation",
    "audit_block_schedule",
    "audit_expansion",
    "audit_modulo_resources",
    "audit_optimality",
    "audit_precedence",
    "audit_program",
    "audit_result",
    "audit_schedule",
    "audit_window",
    "random_dep_graph",
    "random_program",
    "run_campaign",
]
