"""A simplified trace scheduler, for the section-5 comparison.

Trace scheduling (Fisher 1981) picks the most likely execution trace
through a loop body, compacts it as one big basic block, and patches the
other paths with bookkeeping (compensation) code.  The paper contrasts it
with software pipelining qualitatively: pipelining retains the control
structure, bounds code growth, and needs no unrolling experimentation.

This module reproduces the *static* side of that comparison for one loop
body:

* the main trace is chosen by assuming every conditional takes its THEN
  arm (data-dependent branches are 50/50 in the paper's experiments, so
  any fixed choice is as good);
* the trace is list-scheduled as a single block — all legal code motion
  within the trace, exactly trace scheduling's strength;
* every operation moved above or below a conditional it used to follow or
  precede would have to be duplicated into the off-trace path; we count
  those copies the way Fisher's bookkeeping does (off-trace arm length +
  duplicated slots).

The numbers feed ``benchmarks/bench_trace_comparison.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.listsched import list_schedule_block
from repro.deps.build import build_block_graph
from repro.ir.ops import Operation
from repro.ir.stmts import ForLoop, IfStmt, Stmt
from repro.machine.description import MachineDescription


@dataclass(frozen=True)
class TraceReport:
    """Static metrics of trace-scheduling one loop body."""

    trace_ops: int
    trace_length: int          # compacted main-trace schedule length
    off_trace_ops: int         # operations only on non-main paths
    compensation_ops: int      # bookkeeping copies at trace exits/entries
    code_size: int             # trace + off-trace + compensation (ops)


def _split_trace(stmts: list[Stmt]) -> tuple[list[Operation], int, int]:
    """Follow THEN arms; return (main-trace ops, off-trace op count,
    number of conditionals on the trace)."""
    trace: list[Operation] = []
    off_trace = 0
    branches = 0
    for stmt in stmts:
        if isinstance(stmt, Operation):
            trace.append(stmt)
        elif isinstance(stmt, IfStmt):
            branches += 1
            then_ops, then_off, then_branches = _split_trace(stmt.then_body)
            trace.extend(then_ops)
            off_trace += then_off
            branches += then_branches
            off_trace += sum(1 for _ in _walk_ops(stmt.else_body))
        elif isinstance(stmt, ForLoop):
            raise TypeError("trace scheduling here handles innermost loops only")
    return trace, off_trace, branches


def _walk_ops(stmts: list[Stmt]):
    for stmt in stmts:
        if isinstance(stmt, Operation):
            yield stmt
        elif isinstance(stmt, IfStmt):
            yield from _walk_ops(stmt.then_body)
            yield from _walk_ops(stmt.else_body)


def trace_schedule_loop(
    loop: ForLoop, machine: MachineDescription
) -> TraceReport:
    """Compact the main trace of ``loop`` and account for bookkeeping."""
    trace, off_trace, branches = _split_trace(loop.body)
    graph = build_block_graph(trace, machine)
    schedule = list_schedule_block(graph, machine)
    # Bookkeeping: every operation that shares a cycle with (or crosses)
    # a branch boundary must be replicated on the off-trace side.  A simple
    # safe count: each conditional splits the trace; operations scheduled
    # across a split point get copied once per crossed split.
    compensation = 0
    if branches:
        # Operations from below a branch scheduled above it (or vice versa)
        # are those whose schedule order differs from source order across
        # branch positions; bound it by counting order inversions.
        order = sorted(range(len(trace)), key=lambda i: schedule.times[i])
        for position, source_index in enumerate(order):
            if source_index > position:
                compensation += 1
    return TraceReport(
        trace_ops=len(trace),
        trace_length=schedule.completion_length,
        off_trace_ops=off_trace,
        compensation_ops=compensation,
        code_size=len(trace) + off_trace + compensation,
    )
