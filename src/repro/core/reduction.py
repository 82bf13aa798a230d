"""Hierarchical reduction (Lam 1988, section 3).

Control constructs are scheduled innermost-first and each is *reduced* to a
single node representing all its scheduling constraints, so that scheduling
techniques defined for straight-line code — list scheduling and software
pipelining — apply across basic blocks.

Conditionals: the THEN and ELSE arms are list-scheduled independently; the
reduced node's length is the longer arm, its reservation table the
entrywise maximum of the two arms' tables (plus the sequencer dispatch that
steers between them), and its def/use/memory summaries carry the internal
time offsets, so the generic edge-construction rules of
:mod:`repro.deps.build` produce exactly the adjusted constraints the paper
describes.

By default a conditional keeps the units its ``cbr`` dispatch reserves (the
sequencer, on Warp) busy for its whole extent,
which makes the node effectively indivisible with respect to other
conditionals and to its own instances from neighbouring iterations — this
is the paper's arrangement ("software pipelining is then applied to the
node representing the conditional statement, treating its operations as
indivisible"), and is what makes predicate-free code emission possible at
the price of a larger initiation interval for conditional loops.
"""

from __future__ import annotations

import contextvars
import itertools
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.core.listsched import list_schedule_block
from repro.deps.build import (
    DependenceOptions,
    connect_block_edges,
    connect_loop_edges,
    make_increment_node,
    node_from_operation,
)
from repro.deps.graph import DefInfo, DepGraph, DepNode, MemAccess, UseInfo
from repro.ir.operands import Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import ForLoop, IfStmt, Stmt
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable

# Each conditional is reduced once and has one uid, shared by every emitted
# copy of its loop (unpipelined, peel, kernel, passes of an outer loop): the
# simulator keys branch outcomes on (uid, iteration), and a dispatch records
# its outcome before any guard of that iteration reads it.  Uids are unique
# within one compiled program, drawn from a per-compilation scope installed by
# :func:`repro.core.compile.compile_program`, so compiling the same program
# always numbers its conditionals identically — byte-identical output
# regardless of process history or of other compilations running in
# parallel threads.  The module-global counter is only the fallback for
# direct calls outside any compilation scope (unit tests, exploration).
_uid_counter = itertools.count(1)
_UID_SCOPE: contextvars.ContextVar[Optional["itertools.count"]] = (
    contextvars.ContextVar("reduction_uid_scope", default=None)
)


def _next_uid() -> int:
    scope = _UID_SCOPE.get()
    if scope is None:
        return next(_uid_counter)
    return next(scope)


@contextmanager
def fresh_uid_scope() -> Iterator[None]:
    """Number reduced conditionals from 1 for the enclosed compilation."""
    token = _UID_SCOPE.set(itertools.count(1))
    try:
        yield
    finally:
        _UID_SCOPE.reset(token)


@dataclass
class ReducedIf:
    """Payload of a node standing for a whole IF statement.

    ``then_nodes`` / ``else_nodes`` hold each arm's sub-nodes with their
    issue offsets relative to the reduced node's start (the dispatch of the
    condition happens at offset 0).
    """

    stmt: IfStmt
    uid: int
    cond: Operand
    then_nodes: list[tuple[DepNode, int]]
    else_nodes: list[tuple[DepNode, int]]
    length: int


@dataclass
class LoopGraph:
    """The dependence graphs of one innermost loop, after reduction.

    ``graph``, which the modulo scheduler sees, drops the cross-iteration
    anti and output edges of the registers modulo variable expansion
    renames (``options.expanded_regs``).  ``block_graph`` keeps them over
    the same node objects, for the unpipelined copy; it is ``graph``
    itself when nothing is expanded.  A loop built for a compile that
    does not pipeline leaves ``graph`` without edges.
    """

    loop: ForLoop
    graph: DepGraph
    block_graph: DepGraph
    increment: DepNode
    options: DependenceOptions
    machine: MachineDescription

    @property
    def has_conditionals(self) -> bool:
        return any(
            isinstance(node.payload, ReducedIf) for node in self.graph.nodes
        )


def _arm_schedule(
    stmts: list[Stmt],
    machine: MachineDescription,
    serialize: bool,
) -> tuple[list[tuple[DepNode, int]], int]:
    """Reduce and list-schedule one arm; returns (sub-nodes with offsets,
    arm issue length)."""
    graph = DepGraph()
    for index, stmt in enumerate(stmts):
        graph.add_node(_reduce_stmt(stmt, machine, index, serialize))
    connect_block_edges(graph)
    schedule = list_schedule_block(graph, machine)
    placed = [
        (node, schedule.times[node.index])
        for node in sorted(graph.nodes, key=lambda n: n.index)
    ]
    return placed, schedule.length


def _reduce_stmt(
    stmt: Stmt,
    machine: MachineDescription,
    index: int,
    serialize: bool,
) -> DepNode:
    if isinstance(stmt, Operation):
        return node_from_operation(stmt, machine, index)
    if isinstance(stmt, IfStmt):
        return reduce_if(stmt, machine, index, serialize=serialize)
    raise TypeError(
        f"cannot reduce {stmt!r}: nested loops must be compiled innermost"
        " first (only innermost loops are software pipelined)"
    )


def reduce_if(
    stmt: IfStmt,
    machine: MachineDescription,
    index: int,
    *,
    serialize: bool = True,
) -> DepNode:
    """Reduce a conditional to a single schedulable node."""
    then_nodes, then_len = _arm_schedule(stmt.then_body, machine, serialize)
    else_nodes, else_len = _arm_schedule(stmt.else_body, machine, serialize)
    # The dispatch reads the condition and steers the sequencer at offset 0;
    # both arms start after it.
    then_nodes = [(node, offset + 1) for node, offset in then_nodes]
    else_nodes = [(node, offset + 1) for node, offset in else_nodes]
    length = 1 + max(then_len, else_len, 0)

    reservation = ReservationTable()
    for arm in (then_nodes, else_nodes):
        arm_table = ReservationTable()
        for node, offset in arm:
            arm_table = arm_table.merged(node.reservation.shifted(offset))
        reservation = reservation.union_max(arm_table)
    dispatch = machine.reservation(Opcode.CBR.value)
    reservation = reservation.merged(dispatch)
    if serialize:
        branch_units = {res: machine.units(res) for res in dispatch.resources()}
        reservation = reservation.saturated(branch_units, length)

    defs = _merged_defs(then_nodes, else_nodes)
    uses = _external_uses(stmt.cond, then_nodes, else_nodes)
    mem = tuple(
        MemAccess(a.kind, a.array, a.base_reg, a.offset, a.time_offset + offset)
        for arm in (then_nodes, else_nodes)
        for node, offset in arm
        for a in node.mem
    )
    payload = ReducedIf(
        stmt=stmt,
        uid=_next_uid(),
        cond=stmt.cond,
        then_nodes=then_nodes,
        else_nodes=else_nodes,
        length=length,
    )
    return DepNode(
        index=index,
        reservation=reservation,
        payload=payload,
        defs=defs,
        uses=uses,
        mem=mem,
        label=f"if({stmt.cond})",
    )


def _merged_defs(
    then_nodes: list[tuple[DepNode, int]],
    else_nodes: list[tuple[DepNode, int]],
) -> tuple[DefInfo, ...]:
    """Registers defined in either arm, with both write-time bounds."""
    latest: dict[Reg, int] = {}
    earliest: dict[Reg, int] = {}
    for arm in (then_nodes, else_nodes):
        for node, offset in arm:
            for info in node.defs:
                reg = info.reg
                latest[reg] = max(
                    latest.get(reg, 0), offset + info.write_latency
                )
                early = offset + info.earliest_write
                earliest[reg] = min(earliest.get(reg, early), early)
    return tuple(
        DefInfo(reg, latest[reg], earliest[reg])
        for reg in sorted(latest, key=lambda r: r.name)
    )


def _external_uses(
    cond: Operand,
    then_nodes: list[tuple[DepNode, int]],
    else_nodes: list[tuple[DepNode, int]],
) -> tuple[UseInfo, ...]:
    """Reads that reach outside the construct: the condition, plus every
    arm-internal use whose reaching definition is not earlier in the same
    arm."""
    uses: list[UseInfo] = []
    if isinstance(cond, Reg):
        uses.append(UseInfo(cond, 0))
    for arm in (then_nodes, else_nodes):
        defined: set[Reg] = set()
        for node, offset in arm:
            for use in node.uses:
                if use.reg not in defined:
                    uses.append(UseInfo(use.reg, offset + use.read_offset))
            defined.update(info.reg for info in node.defs)
    # Deduplicate, keeping the latest read offset per register (the most
    # constraining one for anti-dependences is the latest read; flow
    # dependences want the earliest, so keep both extremes).
    by_reg: dict[Reg, list[int]] = {}
    for use in uses:
        by_reg.setdefault(use.reg, []).append(use.read_offset)
    merged = []
    for reg, offsets in by_reg.items():
        merged.append(UseInfo(reg, min(offsets)))
        if max(offsets) != min(offsets):
            merged.append(UseInfo(reg, max(offsets)))
    return tuple(sorted(merged, key=lambda u: (u.reg.name, u.read_offset)))


def build_reduced_loop_graph(
    loop: ForLoop,
    machine: MachineDescription,
    options: DependenceOptions = DependenceOptions(),
    *,
    serialize_ifs: bool = True,
    pipeline: bool = True,
) -> LoopGraph:
    """Reduce an innermost loop body to flat dependence graphs.

    Conditionals become single nodes, once, and the induction-variable
    increment is materialised.  Registers are qualified for modulo
    variable expansion on the nodes (qualification does not depend on
    edges), then one dependence walk connects the nodes with those
    registers expanded (``graph``) and without (``block_graph``).

    With ``pipeline=False`` nothing will modulo-schedule ``graph``, so
    the walk connects only ``block_graph`` and ``graph`` keeps the nodes
    with no edges.
    """
    from repro.core.mve import expandable_registers

    graph = DepGraph()
    for index, stmt in enumerate(loop.body):
        graph.add_node(_reduce_stmt(stmt, machine, index, serialize_ifs))
    increment = make_increment_node(loop, machine, len(loop.body))
    graph.add_node(increment)
    options = replace(options, expanded_regs=expandable_registers(graph))
    if not pipeline:
        block_graph = DepGraph(graph.nodes)
        connect_loop_edges(
            block_graph, loop, replace(options, expanded_regs=frozenset())
        )
    elif options.expanded_regs:
        block_graph = DepGraph(graph.nodes)
        connect_loop_edges(graph, loop, options, block_graph=block_graph)
    else:
        block_graph = graph
        connect_loop_edges(graph, loop, options)
    return LoopGraph(loop, graph, block_graph, increment, options, machine)
