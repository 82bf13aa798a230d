"""Sequential reference interpreter.

Executes IR programs with ordinary sequential semantics.  Every scheduled
and software-pipelined translation of a program is validated against this
interpreter: same final memory, bit-for-bit (all arithmetic is Python
int/float in both).
"""

from __future__ import annotations

import zlib
from typing import Callable, Optional, Union

from repro.ir.operands import FLOAT, Imm, Operand, Reg
from repro.ir.ops import Opcode, Operation, evaluate
from repro.ir.stmts import ForLoop, IfStmt, Program, Stmt

Number = Union[int, float]
#: Memory maps ``(array name, element index) -> value``.
Memory = dict[tuple[str, int], Number]
ArrayInit = Callable[[str, int], Number]


def default_array_init(name: str, index: int) -> float:
    """Deterministic, name-dependent initial array contents: the same in
    every process, whatever its ``PYTHONHASHSEED``."""
    h = (zlib.crc32(f"{name}[{index}]".encode()) % 1000003) / 1000003.0
    return round(2.0 * h - 1.0, 6)


class InterpreterError(Exception):
    pass


class Interpreter:
    """Executes a :class:`Program` sequentially.

    Register and memory state is exposed so tests can seed inputs and
    inspect outputs.
    """

    def __init__(self, program: Program,
                 array_init: ArrayInit = default_array_init) -> None:
        self.program = program
        self.regs: dict[Reg, Number] = {}
        self.memory: Memory = {}
        self.op_count = 0
        self.flop_count = 0
        for decl in program.arrays.values():
            for index in range(decl.size):
                value = array_init(decl.name, index)
                if decl.kind == FLOAT:
                    value = float(value)
                else:
                    value = int(value)
                self.memory[(decl.name, index)] = value

    # -- operand/memory helpers ---------------------------------------------

    def read(self, operand: Operand) -> Number:
        if isinstance(operand, Imm):
            return operand.value
        try:
            return self.regs[operand]
        except KeyError:
            raise InterpreterError(f"read of undefined register {operand}") from None

    def _check_bounds(self, array: str, index: int) -> None:
        decl = self.program.arrays.get(array)
        if decl is None:
            raise InterpreterError(f"unknown array {array!r}")
        if not 0 <= index < decl.size:
            raise InterpreterError(
                f"{array}[{index}] out of bounds (size {decl.size})"
            )

    # -- execution ----------------------------------------------------------

    def run(self) -> Memory:
        self._run_stmts(self.program.body)
        return self.memory

    def _run_stmts(self, stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Operation):
                self._run_op(stmt)
            elif isinstance(stmt, ForLoop):
                self._run_loop(stmt)
            elif isinstance(stmt, IfStmt):
                if self.read(stmt.cond):
                    self._run_stmts(stmt.then_body)
                else:
                    self._run_stmts(stmt.else_body)
            else:
                raise TypeError(f"unknown statement {stmt!r}")

    def _run_loop(self, loop: ForLoop) -> None:
        value = self.read(loop.start)
        stop = self.read(loop.stop)
        while (value <= stop) if loop.step > 0 else (value >= stop):
            self.regs[loop.var] = value
            self._run_stmts(loop.body)
            value += loop.step

    def _run_op(self, op: Operation) -> None:
        self.op_count += 1
        if op.opcode in (Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
                         Opcode.FNEG, Opcode.FABS, Opcode.FMAX, Opcode.FMIN):
            self.flop_count += 1
        if op.opcode is Opcode.LOAD:
            index = int(self.read(op.srcs[0])) + op.offset
            self._check_bounds(op.array, index)
            self.regs[op.dest] = self.memory[(op.array, index)]
        elif op.opcode is Opcode.STORE:
            index = int(self.read(op.srcs[0])) + op.offset
            self._check_bounds(op.array, index)
            self.memory[(op.array, index)] = self.read(op.srcs[1])
        elif op.is_control:
            raise InterpreterError(f"control op {op!r} in structured IR")
        else:
            args = [self.read(s) for s in op.srcs]
            self.regs[op.dest] = evaluate(op.opcode, *args)


def run_program(program: Program,
                array_init: ArrayInit = default_array_init,
                initial_regs: Optional[dict[Reg, Number]] = None) -> Memory:
    """Run ``program`` sequentially and return its final memory."""
    interp = Interpreter(program, array_init)
    if initial_regs:
        interp.regs.update(initial_regs)
    return interp.run()
