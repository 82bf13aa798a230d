"""Modulo variable expansion (Lam 1988, section 2.3).

If the same register were used by every iteration, a value's definition in
one iteration could not be scheduled past its use in the previous one: the
cross-iteration anti and output dependences serialise the pipeline.  Modulo
variable expansion allocates several locations to such a variable, used by
alternating iterations, which removes those dependences at the cost of
unrolling the steady state.

Mechanics, exactly as the paper prescribes:

1. *Qualify* the variables to expand.  We use "defined exactly once per
   iteration by an unconditional operation", which covers the paper's
   "redefined at the beginning of every iteration" case and also lets
   recurrence carriers (induction variables, accumulators) rotate through
   several locations while their true flow dependences are kept intact.
2. *Pretend* each iteration has a dedicated location: drop every
   cross-iteration anti and output dependence on qualified variables before
   scheduling (:class:`repro.deps.DependenceOptions.expanded_regs`).
3. After scheduling, compute each variable's *lifetime* and from it
   ``q_i = ceil(lifetime_i / s)``, the number of values simultaneously live.
4. Choose the kernel unrolling degree: ``lcm(q_i)`` minimises registers;
   the paper's preferred policy is the minimum unrolling ``u = max(q_i)``
   with each variable's allocation rounded up to the smallest factor of
   ``u`` that is at least ``q_i``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.core.schedule import KernelSchedule
from repro.deps.graph import DepGraph, DepNode
from repro.ir.operands import Reg
from repro.ir.ops import Operation

#: Unrolling policies.
MIN_UNROLL = "min_unroll"      # u = max q_i, registers rounded up (default)
MIN_REGISTERS = "min_registers"  # u = lcm q_i, exactly q_i registers each
MVE_POLICIES = (MIN_UNROLL, MIN_REGISTERS)


def expandable_registers(graph: DepGraph) -> frozenset[Reg]:
    """Registers qualified for modulo variable expansion: defined exactly
    once per iteration, by a plain (unconditional) operation."""
    def_count: dict[Reg, int] = {}
    conditional: set[Reg] = set()
    for node in graph.nodes:
        for info in node.defs:
            def_count[info.reg] = def_count.get(info.reg, 0) + 1
            if not isinstance(node.payload, Operation):
                conditional.add(info.reg)
    return frozenset(
        reg for reg, count in def_count.items()
        if count == 1 and reg not in conditional
    )


@dataclass
class ExpansionPlan:
    """The outcome of modulo variable expansion for one kernel schedule.

    copies
        Locations actually allocated per expanded register (a divisor of
        ``unroll``, at least the lifetime requirement ``q``).
    use_omega
        For each (node index, register) read of an expanded register: how
        many iterations back the value was defined (0 = same iteration,
        1 = previous).  Iteration ``j`` reads copy ``(j - omega) mod n``
        and writes copy ``j mod n``.
    """

    unroll: int
    q: dict[Reg, int]
    copies: dict[Reg, int]
    use_omega: dict[tuple[int, Reg], int]
    policy: str = MIN_UNROLL

    @property
    def expanded(self) -> frozenset[Reg]:
        return frozenset(self.copies)

    def copy_for_def(self, reg: Reg, iteration: int) -> int:
        return iteration % self.copies[reg]

    def copy_for_use(self, node_index: int, reg: Reg, iteration: int) -> int:
        omega = self.use_omega[(node_index, reg)]
        return (iteration - omega) % self.copies[reg]


def _smallest_factor_at_least(u: int, q: int) -> int:
    """Smallest divisor of ``u`` that is >= ``q`` (the paper's register
    rounding rule: min n with n >= q_i and u mod n == 0)."""
    for n in range(q, u + 1):
        if u % n == 0:
            return n
    return u


def plan_expansion(
    schedule: KernelSchedule,
    expanded: Iterable[Reg],
    policy: str = MIN_UNROLL,
) -> ExpansionPlan:
    """Compute lifetimes, copy counts and the kernel unrolling degree.

    ``expanded`` must be the same register set whose cross-iteration anti
    and output dependences were dropped before scheduling.
    """
    if policy not in MVE_POLICIES:
        raise ValueError(f"unknown expansion policy {policy!r}")
    graph, s = schedule.graph, schedule.ii
    expanded = frozenset(expanded)

    defs: dict[Reg, tuple[DepNode, int]] = {}
    for node in graph.nodes:
        for info in node.defs:
            if info.reg in expanded:
                if info.reg in defs:
                    raise ValueError(
                        f"register {info.reg} expanded but multiply defined"
                    )
                defs[info.reg] = (node, info.write_latency)

    q: dict[Reg, int] = {reg: 1 for reg in expanded}
    use_omega: dict[tuple[int, Reg], int] = {}
    for node in graph.nodes:
        for use in node.uses:
            reg = use.reg
            if reg not in expanded:
                continue
            def_node, latency = defs[reg]
            omega = 0 if def_node.index < node.index else 1
            use_omega[(node.index, reg)] = omega
            read_time = schedule.times[node.index] + use.read_offset + omega * s
            write_time = schedule.times[def_node.index] + latency
            # The value must survive from its write until this read: the
            # next def into the same location commits q*s cycles after this
            # one, and must land strictly after the read.
            need = math.ceil((read_time + 1 - write_time) / s)
            q[reg] = max(q[reg], need)

    if policy == MIN_REGISTERS:
        unroll = 1
        for value in q.values():
            unroll = math.lcm(unroll, value)
        copies = dict(q)
    else:
        unroll = max(q.values(), default=1)
        copies = {
            reg: _smallest_factor_at_least(unroll, value)
            for reg, value in q.items()
        }
    return ExpansionPlan(
        unroll=max(1, unroll),
        q=q,
        copies=copies,
        use_omega=use_omega,
        policy=policy,
    )
