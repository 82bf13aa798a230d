"""Differential oracle: compiled execution vs. scalar semantics.

Two independent checks per source program:

1. *Schedule audit* — every innermost loop is re-scheduled directly
   through the modulo-scheduling core and the resulting
   :class:`~repro.core.pipeliner.PipelineResult` (plus its expansion plan)
   is put through the :mod:`repro.audit.oracle` invariant auditors.
2. *End-to-end differential* — the whole program is compiled and run on
   the VLIW simulator, and final memory is compared cell-for-cell against
   the sequential reference interpreter (NaN matching NaN; two NaNs are
   the *same* wrong answer, not a mismatch).

Failures of either kind come back as the same structured
:class:`~repro.audit.oracle.Violation` records the oracles use, with
kinds ``differential``, ``execution_divergence`` and ``crash`` added.
"""

from __future__ import annotations

import traceback
from dataclasses import replace
from typing import Optional

from repro.audit.oracle import Violation, _report, audit_result
from repro.core.compile import CompilerPolicy, compile_program, scheduler_for
from repro.core.emit import RegisterPressureError
from repro.core.mve import plan_expansion
from repro.core.reduction import build_reduced_loop_graph, fresh_uid_scope
from repro.core.schedule import SchedulingFailure
from repro.deps.build import DependenceOptions
from repro.frontend import parse_with_policy
from repro.ir.cse import eliminate_common_subexpressions
from repro.ir.interp import run_program
from repro.ir.stmts import Program
from repro.ir.verify import verify_program
from repro.machine import WARP
from repro.machine.description import MachineDescription
from repro.obs import trace as obs
from repro.simulator.executor import memory_diffs, run_code

DIFFERENTIAL = "differential"
DIVERGENCE = "execution_divergence"
CRASH = "crash"


def audit_loop_schedules(
    program: Program,
    machine: MachineDescription,
    policy: CompilerPolicy,
    where: str,
) -> list[Violation]:
    """Re-schedule each innermost loop and audit the result directly.

    The compiler discards its :class:`PipelineResult` after emission; this
    rebuilds one per loop under the same policy, with the scheduler backend
    the policy names, so the oracles can see it.  The audited graph is
    always the one a pipelining compile schedules, also when the policy
    turns pipelining off.
    Scheduler declines (no interval found, oversized bodies) are counted
    but are not violations — the compiler falls back to the unpipelined
    loop in those cases.
    """
    violations: list[Violation] = []
    options = DependenceOptions(
        independent_arrays=policy.independent_arrays
    )
    for position, loop in enumerate(program.inner_loops()):
        label = f"{where}:loop{position}"
        with fresh_uid_scope():
            lg = build_reduced_loop_graph(
                loop, machine, options,
                serialize_ifs=policy.serialize_ifs,
            )
            scheduler = scheduler_for(machine, policy)
            try:
                result = scheduler.schedule(lg.graph)
            except SchedulingFailure:
                obs.count("audit_scheduler_declines")
                continue
            obs.count("audit_loops_scheduled")
            plan = plan_expansion(
                result.schedule, lg.options.expanded_regs, policy.mve_policy
            )
        found = audit_result(result, plan)
        violations.extend(
            replace(v, where=f"{label} {v.where}") for v in found
        )
    return violations


def audit_program(
    name: str,
    source: str,
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
) -> list[Violation]:
    """Full audit of one source program; never raises."""
    violations: list[Violation] = []
    try:
        program, policy = parse_with_policy(source, policy)
        verify_program(program)
        if policy.cse:
            program = eliminate_common_subexpressions(program)
    except Exception:
        _report(
            violations, CRASH, f"{name} frontend",
            traceback.format_exc(limit=4),
        )
        return violations

    violations += audit_loop_schedules(program, machine, policy, name)

    try:
        compiled = compile_program(program, machine, policy)
    except RegisterPressureError:
        # A generated program can legitimately need more registers than
        # the machine has (several busy expanded loops under an outer
        # loop).  Like a SchedulingFailure, refusing is correct behaviour
        # — only a wrong answer would be a violation.
        obs.count("audit_register_declines")
        return violations
    except Exception:
        _report(
            violations, CRASH, f"{name} compile",
            traceback.format_exc(limit=4),
        )
        return violations

    simulated: Optional[dict] = None
    sim_error: Optional[str] = None
    try:
        _, simulated = run_code(compiled.code)
    except Exception as exc:
        sim_error = f"{type(exc).__name__}: {exc}"
    expected: Optional[dict] = None
    ref_error: Optional[str] = None
    try:
        expected = run_program(program)
    except Exception as exc:
        ref_error = f"{type(exc).__name__}: {exc}"

    if (sim_error is None) != (ref_error is None):
        _report(
            violations, DIVERGENCE, name,
            f"simulator: {sim_error or 'ok'}; interpreter: {ref_error or 'ok'}",
        )
    elif sim_error is None and simulated is not None and expected is not None:
        obs.count("audit_differential_runs")
        diffs = memory_diffs(simulated, expected)
        if diffs:
            _report(
                violations, DIFFERENTIAL, name,
                f"{len(diffs)} memory cells differ, e.g.\n"
                + "\n".join(diffs[:5]),
            )
    return violations
