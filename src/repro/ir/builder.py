"""Fluent builders for constructing IR programs in code.

Example::

    pb = ProgramBuilder("saxpy")
    x = pb.array("x", 1024)
    y = pb.array("y", 1024)
    with pb.loop("i", 0, 1023) as body:
        xi = body.load(x, body.var)
        yi = body.load(y, body.var)
        body.store(y, body.var, body.fadd(body.fmul(xi, 2.0), yi))
    program = pb.finish()
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Union

from repro.ir.operands import FLOAT, INT, Reg, as_operand
from repro.ir.ops import BINARY, FLOAT_COMPARE, FLOAT_RESULT, Opcode, Operation, UNARY
from repro.ir.stmts import ArrayDecl, ForLoop, IfStmt, Program, Stmt

_ArrayLike = Union[str, ArrayDecl]


class BlockBuilder:
    """Appends statements to one statement list."""

    def __init__(self, program_builder: "ProgramBuilder", stmts: list[Stmt],
                 var: Optional[Reg] = None) -> None:
        self._pb = program_builder
        self._stmts = stmts
        #: Innermost induction variable, if inside a loop.
        self.var = var

    # -- operations ---------------------------------------------------------

    def op(self, opcode: Opcode, *srcs, dest: Optional[Reg] = None) -> Reg:
        """Emit an arithmetic operation, allocating a destination if needed."""
        operands = tuple(as_operand(s) for s in srcs)
        if dest is None:
            if opcode in FLOAT_RESULT:
                kind = FLOAT
            elif opcode in FLOAT_COMPARE:
                kind = INT
            elif opcode in (Opcode.MOV, Opcode.NEG, Opcode.NOT):
                kind = operands[0].kind
            else:
                kind = INT
            dest = self._pb.temp(kind)
        self._stmts.append(Operation(opcode, dest, operands))
        return dest

    def __getattr__(self, name: str):
        """``builder.fadd(a, b)`` works for every arithmetic opcode."""
        try:
            opcode = Opcode(name)
        except ValueError:
            raise AttributeError(name) from None
        if opcode not in BINARY and opcode not in UNARY:
            raise AttributeError(name)

        def emit(*srcs, dest: Optional[Reg] = None) -> Reg:
            return self.op(opcode, *srcs, dest=dest)

        return emit

    def load(self, array: _ArrayLike, index, offset: int = 0,
             dest: Optional[Reg] = None) -> Reg:
        decl = self._pb._resolve_array(array)
        if dest is None:
            dest = self._pb.temp(decl.kind)
        self._stmts.append(
            Operation(Opcode.LOAD, dest, (as_operand(index),),
                      array=decl.name, offset=offset)
        )
        return dest

    def store(self, array: _ArrayLike, index, value, offset: int = 0) -> None:
        decl = self._pb._resolve_array(array)
        self._stmts.append(
            Operation(Opcode.STORE, None, (as_operand(index), as_operand(value)),
                      array=decl.name, offset=offset)
        )

    # -- control ------------------------------------------------------------

    @contextmanager
    def loop(self, var: Union[str, Reg], start, stop, step: int = 1
             ) -> Iterator["BlockBuilder"]:
        if isinstance(var, str):
            var = Reg(var, INT)
        body: list[Stmt] = []
        self._stmts.append(
            ForLoop(var, as_operand(start), as_operand(stop), body, step)
        )
        yield BlockBuilder(self._pb, body, var)

    @contextmanager
    def if_(self, cond) -> Iterator[tuple["BlockBuilder", "BlockBuilder"]]:
        stmt = IfStmt(as_operand(cond))
        self._stmts.append(stmt)
        yield (
            BlockBuilder(self._pb, stmt.then_body, self.var),
            BlockBuilder(self._pb, stmt.else_body, self.var),
        )


class ProgramBuilder(BlockBuilder):
    """Builds a whole :class:`Program`."""

    def __init__(self, name: str) -> None:
        self._program = Program(name)
        self._temp_count = 0
        super().__init__(self, self._program.body)

    def array(self, name: str, size: int, kind: str = FLOAT) -> ArrayDecl:
        return self._program.declare(name, size, kind)

    def reg(self, name: str, kind: str = INT) -> Reg:
        return Reg(name, kind)

    def freg(self, name: str) -> Reg:
        return Reg(name, FLOAT)

    def temp(self, kind: str = FLOAT) -> Reg:
        self._temp_count += 1
        return Reg(f"t{self._temp_count}", kind)

    def finish(self) -> Program:
        return self._program

    def _resolve_array(self, array: _ArrayLike) -> ArrayDecl:
        if isinstance(array, ArrayDecl):
            return array
        return self._program.arrays[array]


#: Alias kept for API symmetry with the paper's terminology.
LoopBuilder = BlockBuilder
