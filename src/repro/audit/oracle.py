"""Schedule oracles: independent re-derivation of the pipeline invariants.

This module owns every schedule checker in the package.  Each auditor
takes a finished schedule (and, for expansion, its
:class:`~repro.core.mve.ExpansionPlan`) and rebuilds the constraint it
checks from first principles — its own modulo table, its own flat window,
its own lifetime arithmetic — sharing no bookkeeping with the scheduler it
audits.  Violations come back as structured records rather than
exceptions, so a fuzzing campaign can keep going and classify what it
found; every reported violation also bumps a ``violation_<kind>`` counter
on the ambient :mod:`repro.obs` observer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.core.mve import MIN_REGISTERS, MIN_UNROLL, ExpansionPlan
from repro.core.pipeliner import PipelineResult
from repro.core.schedule import BlockSchedule, KernelSchedule
from repro.ir.operands import Reg
from repro.obs import trace as obs

#: Violation kinds, one per invariant (sub)class the oracles distinguish.
RESOURCE = "resource"
PRECEDENCE = "precedence"
WINDOW_PRECEDENCE = "window_precedence"
WINDOW_RESOURCE = "window_resource"
CLUSTER = "cluster"
MVE_OMEGA = "mve_omega"
MVE_LIFETIME = "mve_lifetime"
MVE_COPIES = "mve_copies"
MVE_UNROLL = "mve_unroll"


@dataclass(frozen=True)
class Violation:
    """One broken invariant, attributable and machine-classifiable."""

    kind: str
    where: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.where}: {self.detail}"


def _report(violations: list[Violation], kind: str, where: str,
            detail: str) -> None:
    obs.count(f"violation_{kind}")
    violations.append(Violation(kind, where, detail))


# -- invariant 1: modulo resource usage ---------------------------------------


def audit_modulo_resources(
    schedule: KernelSchedule, *, reserved_branch: Optional[str] = "seq"
) -> list[Violation]:
    """Re-derive the modulo reservation table from the schedule alone and
    compare every row against the machine's limits."""
    violations: list[Violation] = []
    s = schedule.ii
    rows: dict[tuple[int, str], int] = defaultdict(int)
    if reserved_branch is not None:
        rows[(s - 1) % s, reserved_branch] += 1
    for node in schedule.graph.nodes:
        time = schedule.times[node.index]
        for offset, resource, amount in node.reservation:
            rows[(time + offset) % s, resource] += amount
    for (row, resource), amount in sorted(rows.items()):
        limit = schedule.machine.units(resource)
        if amount > limit:
            _report(
                violations, RESOURCE, f"modulo row {row}",
                f"{resource!r} used {amount}x but the machine has {limit}",
            )
    return violations


# -- invariant 2: precedence, kernel and expanded window ----------------------


def audit_precedence(schedule: KernelSchedule) -> list[Violation]:
    """Check ``sigma(v) - sigma(u) >= d(e) - s * p(e)`` for every edge."""
    violations: list[Violation] = []
    s = schedule.ii
    for edge in schedule.graph.edges:
        got = schedule.times[edge.dst.index] - schedule.times[edge.src.index]
        need = edge.delay - s * edge.omega
        if got < need:
            _report(
                violations, PRECEDENCE, repr(edge),
                f"sigma difference {got} < required {need} at s={s}",
            )
    return violations


def audit_window(
    schedule: KernelSchedule,
    *,
    iterations: Optional[int] = None,
    reserved_branch: Optional[str] = "seq",
) -> list[Violation]:
    """Expand the modulo schedule over a concrete window of iterations and
    re-check every constraint between iteration *instances*.

    The steady-state checks average the ramps away; this covers them.  The
    window defaults to the in-flight depth plus the largest iteration
    distance any edge spans, plus one spare on each side.
    """
    violations: list[Violation] = []
    graph, s = schedule.graph, schedule.ii
    if not schedule.times:
        return violations
    if iterations is None:
        max_omega = max((e.omega for e in graph.edges), default=0)
        iterations = schedule.stage_count + max_omega + 2

    def flat(node_index: int, iteration: int) -> int:
        return iteration * s + schedule.times[node_index]

    for edge in graph.edges:
        for i in range(iterations - edge.omega):
            got = flat(edge.dst.index, i + edge.omega) - flat(edge.src.index, i)
            if got < edge.delay:
                _report(
                    violations, WINDOW_PRECEDENCE, repr(edge),
                    f"iteration {i}: flat distance {got} < delay {edge.delay}",
                )
                break  # one instance per edge is enough to classify
    usage: dict[tuple[int, str], int] = defaultdict(int)
    for i in range(iterations):
        if reserved_branch is not None:
            usage[i * s + s - 1, reserved_branch] += 1
        for node in graph.nodes:
            time = flat(node.index, i)
            for offset, resource, amount in node.reservation:
                usage[time + offset, resource] += amount
    for (cycle, resource), amount in sorted(usage.items()):
        limit = schedule.machine.units(resource)
        if amount > limit:
            _report(
                violations, WINDOW_RESOURCE, f"flat cycle {cycle}",
                f"{resource!r} used {amount}x but the machine has {limit}",
            )
    return violations


def audit_block_schedule(schedule: BlockSchedule) -> list[Violation]:
    """Check a straight-line block schedule: every same-iteration edge's
    delay, and absolute per-cycle resource usage."""
    violations: list[Violation] = []
    for edge in schedule.graph.edges:
        if edge.omega != 0:
            continue
        got = schedule.times[edge.dst.index] - schedule.times[edge.src.index]
        if got < edge.delay:
            _report(
                violations, PRECEDENCE, repr(edge),
                f"issue distance {got} < delay {edge.delay}",
            )
    usage: dict[tuple[int, str], int] = defaultdict(int)
    for node in schedule.graph.nodes:
        time = schedule.times[node.index]
        for offset, resource, amount in node.reservation:
            usage[time + offset, resource] += amount
    for (cycle, resource), amount in sorted(usage.items()):
        limit = schedule.machine.units(resource)
        if amount > limit:
            _report(
                violations, RESOURCE, f"cycle {cycle}",
                f"{resource!r} used {amount}x but the machine has {limit}",
            )
    return violations


# -- invariant 3: modulo variable expansion -----------------------------------


def _divisors_at_least(u: int, q: int) -> list[int]:
    return [n for n in range(1, u + 1) if u % n == 0 and n >= q]


def audit_expansion(
    schedule: KernelSchedule, plan: ExpansionPlan
) -> list[Violation]:
    """Re-derive lifetimes and copy requirements and hold the plan to them.

    For each expanded register the value written in iteration ``j`` must
    survive until its last read (same iteration, or the next for a
    wrapped-around use); the next definition into the same location lands
    ``copies * s`` cycles later and must come strictly after that read.
    """
    violations: list[Violation] = []
    graph, s = schedule.graph, schedule.ii

    writers: dict[Reg, list] = defaultdict(list)
    for node in graph.nodes:
        for info in node.defs:
            if info.reg in plan.expanded:
                writers[info.reg].append((node, info))
    for reg in plan.expanded:
        if len(writers[reg]) != 1:
            _report(
                violations, MVE_COPIES, str(reg),
                f"expanded register has {len(writers[reg])} definitions,"
                " expansion requires exactly one",
            )
    needed: dict[Reg, int] = {reg: 1 for reg in plan.expanded}
    for node in graph.nodes:
        for use in node.uses:
            reg = use.reg
            if reg not in plan.expanded or len(writers[reg]) != 1:
                continue
            def_node, info = writers[reg][0]
            omega = 0 if def_node.index < node.index else 1
            recorded = plan.use_omega.get((node.index, reg))
            if recorded != omega:
                _report(
                    violations, MVE_OMEGA,
                    f"node {node.index} use of {reg}",
                    f"plan records omega={recorded}, source order implies"
                    f" {omega}",
                )
            read_end = schedule.times[node.index] + use.read_offset + omega * s + 1
            write = schedule.times[def_node.index] + info.write_latency
            needed[reg] = max(needed[reg], math.ceil((read_end - write) / s))
    for reg in sorted(plan.expanded, key=lambda r: r.name):
        q = needed.get(reg, 1)
        if plan.q.get(reg) != q:
            _report(
                violations, MVE_LIFETIME, str(reg),
                f"plan q={plan.q.get(reg)} but lifetimes require exactly {q}"
                f" (s={s})",
            )
        copies = plan.copies.get(reg, 0)
        if copies < q:
            _report(
                violations, MVE_LIFETIME, str(reg),
                f"{copies} allocated copies < {q} simultaneously live values",
            )
        if plan.unroll % max(copies, 1) != 0:
            _report(
                violations, MVE_COPIES, str(reg),
                f"{copies} copies does not divide unroll {plan.unroll}:"
                " iterations would not rotate through a whole period",
            )
        elif plan.policy == MIN_UNROLL:
            legal = _divisors_at_least(plan.unroll, q)
            if legal and copies != legal[0]:
                _report(
                    violations, MVE_COPIES, str(reg),
                    f"{copies} copies is not the smallest factor of"
                    f" {plan.unroll} covering q={q} (expected {legal[0]})",
                )
        elif plan.policy == MIN_REGISTERS and copies != q:
            _report(
                violations, MVE_COPIES, str(reg),
                f"min-registers policy must allocate exactly q={q},"
                f" got {copies}",
            )
    if plan.expanded:
        if plan.policy == MIN_UNROLL:
            want = max(needed.values(), default=1)
        else:
            want = 1
            for value in needed.values():
                want = math.lcm(want, value)
        if plan.unroll != max(1, want):
            _report(
                violations, MVE_UNROLL, f"policy {plan.policy}",
                f"unroll {plan.unroll} != required {max(1, want)}",
            )
    return violations


# -- aggregate entry points ---------------------------------------------------


def audit_schedule(
    schedule: KernelSchedule,
    plan: Optional[ExpansionPlan] = None,
    *,
    reserved_branch: Optional[str] = "seq",
) -> list[Violation]:
    """All invariant audits applicable to one kernel schedule."""
    violations = audit_modulo_resources(
        schedule, reserved_branch=reserved_branch
    )
    violations += audit_precedence(schedule)
    violations += audit_window(schedule, reserved_branch=reserved_branch)
    if plan is not None:
        violations += audit_expansion(schedule, plan)
    return violations


def audit_result(
    result: PipelineResult,
    plan: Optional[ExpansionPlan] = None,
    *,
    reserved_branch: Optional[str] = "seq",
) -> list[Violation]:
    """Audit a :class:`PipelineResult`: the kernel schedule plus the
    consistency of the cluster structure emission relies on."""
    violations = audit_schedule(
        result.schedule, plan, reserved_branch=reserved_branch
    )
    times = result.schedule.times
    for position, cluster in enumerate(result.clusters):
        bases = {
            times[node.index] - cluster.offset_of(node)
            for node in cluster.members
        }
        if len(bases) > 1:
            _report(
                violations, CLUSTER, f"cluster {position}",
                f"member offsets inconsistent with schedule times: bases"
                f" {sorted(bases)}",
            )
    return violations
