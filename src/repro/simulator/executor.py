"""The VLIW machine simulator."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Union

from repro.core.emit import (
    BlockRegion,
    CodeObject,
    CondRegion,
    GuardedRegion,
    PipelinedLoopRegion,
    Region,
    SequentialLoopRegion,
    SlotOp,
    WideInstruction,
)
from repro.ir.interp import ArrayInit, Interpreter, Memory, default_array_init
from repro.ir.operands import FLOAT, Imm, Operand, Reg
from repro.ir.ops import Opcode, evaluate


class SimulationError(Exception):
    pass


@dataclass
class SimStats:
    """Dynamic execution statistics of one run."""

    cycles: int = 0
    operations: int = 0
    flops: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    clock_mhz: float = 5.0

    @property
    def seconds(self) -> float:
        return self.cycles / (self.clock_mhz * 1e6)

    @property
    def mflops(self) -> float:
        if self.cycles == 0:
            return 0.0
        return self.flops / self.seconds / 1e6

    def __repr__(self) -> str:
        return (
            f"SimStats(cycles={self.cycles}, flops={self.flops},"
            f" mflops={self.mflops:.2f})"
        )


class VLIWSimulator:
    """Executes a :class:`CodeObject` cycle by cycle."""

    def __init__(
        self,
        code: CodeObject,
        array_init: ArrayInit = default_array_init,
        *,
        max_cycles: int = 200_000_000,
    ) -> None:
        self.code = code
        self.machine = code.machine
        self.max_cycles = max_cycles
        self.regs: dict[Reg, Union[int, float]] = {}
        self.memory: Memory = {}
        for decl in code.program.arrays.values():
            for index in range(decl.size):
                value = array_init(decl.name, index)
                self.memory[(decl.name, index)] = (
                    float(value) if decl.kind == FLOAT else int(value)
                )
        self.outcomes: dict[tuple[int, int], bool] = {}
        self._pending: list[tuple[int, int, str, object, object]] = []
        self._seq = 0
        self.cycle = 0
        self.stats = SimStats(clock_mhz=self.machine.clock_mhz)

    # -- operand access ------------------------------------------------------

    def _read(self, operand: Operand) -> Union[int, float]:
        if isinstance(operand, Imm):
            return operand.value
        try:
            return self.regs[operand]
        except KeyError:
            raise SimulationError(
                f"cycle {self.cycle}: read of undefined register {operand}"
            ) from None

    def _schedule_write(self, kind: str, target, value, delay: int) -> None:
        self._seq += 1
        heapq.heappush(
            self._pending, (self.cycle + delay, self._seq, kind, target, value)
        )

    def _commit_due(self) -> None:
        committed: set[tuple[str, object, int]] = set()
        while self._pending and self._pending[0][0] <= self.cycle:
            due, _, kind, target, value = heapq.heappop(self._pending)
            key = (kind, target, due)
            if key in committed:
                # Two writes to the same location commit in the same cycle:
                # a scheduling bug no dependence edge should ever allow.
                raise SimulationError(
                    f"cycle {due}: write-port collision on {target!r}"
                )
            committed.add(key)
            if kind == "reg":
                self.regs[target] = value
            else:
                self.memory[target] = value

    def _drain(self) -> None:
        if self._pending:
            self.cycle = max(due for due, *_ in self._pending)
            self._commit_due()

    # -- execution -----------------------------------------------------------

    def run(self) -> SimStats:
        self._run_regions(self.code.regions)
        self._drain()
        return self.stats

    def _run_regions(self, regions: list[Region]) -> None:
        for region in regions:
            # Region-level control (trip counts, guards, conditionals) reads
            # registers, so results due by now must be visible.
            self._commit_due()
            if isinstance(region, BlockRegion):
                for instr in region.instructions:
                    self._step(instr, base=0)
            elif isinstance(region, SequentialLoopRegion):
                passes = self._passes(region.passes)
                for _ in range(passes):
                    self._run_regions(region.body)
            elif isinstance(region, PipelinedLoopRegion):
                self._run_pipelined(region)
            elif isinstance(region, GuardedRegion):
                n = region.trip.evaluate(self._read)
                chosen = region.main if n >= region.threshold else region.fallback
                self._run_regions(chosen)
            elif isinstance(region, CondRegion):
                # The dispatch itself costs one sequencer cycle.
                self.cycle += 1
                self.stats.cycles += 1
                self.stats.branches += 1
                if self._read(region.cond):
                    self._run_regions(region.then_regions)
                else:
                    self._run_regions(region.else_regions)
            else:
                raise SimulationError(f"unknown region {region!r}")

    def _passes(self, passes) -> int:
        if isinstance(passes, int):
            return passes
        return passes.evaluate(self._read)

    def _run_pipelined(self, region: PipelinedLoopRegion) -> None:
        passes = self._passes(region.passes)
        total = region.started_in_prolog + passes * region.unroll
        for instr in region.prolog:
            self._step(instr, base=0)
        for p in range(passes):
            base = p * region.unroll
            for instr in region.kernel:
                self._step(instr, base=base)
        for instr in region.epilog:
            self._step(instr, base=total)

    def _step(self, instr: WideInstruction, base: int) -> None:
        if self.cycle >= self.max_cycles:
            raise SimulationError(f"exceeded {self.max_cycles} cycles")
        self._commit_due()
        for slot in instr.slots:
            self._execute(slot, base)
        self.cycle += 1
        self.stats.cycles += 1

    def _execute(self, slot: SlotOp, base: int) -> None:
        iteration = base + slot.iteration
        for uid, arm in slot.preds:
            outcome = self.outcomes.get((uid, iteration))
            if outcome is None:
                raise SimulationError(
                    f"cycle {self.cycle}: predicate ({uid}, iter {iteration})"
                    " consulted before its dispatch executed"
                )
            if outcome != (arm == "then"):
                return
        op = slot.op
        opcode = op.opcode
        if opcode is Opcode.NOP:
            return
        self.stats.operations += 1
        if opcode is Opcode.CBR:
            self.outcomes[(slot.cbr_uid, iteration)] = bool(
                self._read(op.srcs[0])
            )
            self.stats.branches += 1
            return
        if opcode in (Opcode.CJUMP, Opcode.JUMP):
            self.stats.branches += 1
            return
        if opcode is Opcode.LOAD:
            index = int(self._read(op.srcs[0])) + op.offset
            self._check_bounds(op.array, index)
            value = self.memory[(op.array, index)]
            self._schedule_write(
                "reg", op.dest, value, self.machine.latency("load")
            )
            self.stats.loads += 1
            return
        if opcode is Opcode.STORE:
            index = int(self._read(op.srcs[0])) + op.offset
            self._check_bounds(op.array, index)
            value = self._read(op.srcs[1])
            self._schedule_write("mem", (op.array, index), value, 1)
            self.stats.stores += 1
            return
        args = [self._read(src) for src in op.srcs]
        value = evaluate(opcode, *args)
        if self.machine.is_flop(opcode.value):
            self.stats.flops += 1
        self._schedule_write(
            "reg", op.dest, value, self.machine.latency(opcode.value)
        )

    def _check_bounds(self, array: str, index: int) -> None:
        decl = self.code.program.arrays.get(array)
        if decl is None:
            raise SimulationError(f"unknown array {array!r}")
        if not 0 <= index < decl.size:
            raise SimulationError(
                f"cycle {self.cycle}: {array}[{index}] out of bounds"
                f" (size {decl.size})"
            )


def run_code(
    code: CodeObject,
    array_init: ArrayInit = default_array_init,
    **kwargs,
) -> tuple[SimStats, Memory]:
    simulator = VLIWSimulator(code, array_init, **kwargs)
    stats = simulator.run()
    return stats, simulator.memory


def values_match(a, b) -> bool:
    """Bit-for-bit equality with one IEEE concession: NaN matches NaN.

    Plain ``==`` reports two NaNs as different, so a program that computes
    NaN identically under both executions would be flagged as a mismatch.
    """
    if a == b:
        return True
    return (
        isinstance(a, float) and isinstance(b, float)
        and math.isnan(a) and math.isnan(b)
    )


def memory_diffs(memory: Memory, expected: Memory) -> list[str]:
    """Human-readable cells where ``memory`` disagrees with ``expected``."""
    return [
        f"  {key}: simulated {memory.get(key)!r}, expected {expected.get(key)!r}"
        for key in sorted(set(memory) | set(expected))
        if not values_match(memory.get(key), expected.get(key))
    ]


def run_and_check(
    code: CodeObject,
    array_init: ArrayInit = default_array_init,
    **kwargs,
) -> SimStats:
    """Run the code and compare final memory bit-for-bit against the
    sequential reference interpreter.  Raises on any mismatch."""
    stats, memory = run_code(code, array_init, **kwargs)
    interp = Interpreter(code.program, array_init)
    expected = interp.run()
    diffs = memory_diffs(memory, expected)
    if diffs:
        raise SimulationError(
            "simulated memory differs from the reference interpreter:\n"
            + "\n".join(diffs[:20])
            + ("" if len(diffs) <= 20 else f"\n  ... {len(diffs) - 20} more")
        )
    return stats
