"""IR well-formedness checks.

Verifies the structural invariants the rest of the pipeline relies on:
operand kinds agree with opcodes, arrays are declared, registers are defined
before use along every path, and structured IR contains no control opcodes.
"""

from __future__ import annotations

from repro.ir.operands import FLOAT, INT, Operand, Reg
from repro.ir.ops import (
    FLOAT_COMPARE,
    FLOAT_RESULT,
    Opcode,
    Operation,
)
from repro.ir.stmts import ForLoop, IfStmt, Program, Stmt

#: Opcodes whose sources must all be floats.
_FLOAT_SRC = FLOAT_RESULT.union(FLOAT_COMPARE) - {Opcode.I2F}


class IRError(Exception):
    """Raised when a program violates an IR invariant."""


def _kind(operand: Operand) -> str:
    return operand.kind


def verify_program(program: Program) -> None:
    """Raise :class:`IRError` on the first violated invariant."""
    defined: set[Reg] = set()
    _verify_stmts(program, program.body, defined)


def _verify_stmts(program: Program, stmts: list[Stmt], defined: set[Reg]) -> None:
    for stmt in stmts:
        if isinstance(stmt, Operation):
            _verify_op(program, stmt, defined)
        elif isinstance(stmt, ForLoop):
            _verify_operand_defined(stmt.start, defined, "loop start")
            _verify_operand_defined(stmt.stop, defined, "loop stop")
            if _kind(stmt.start) != INT or _kind(stmt.stop) != INT:
                raise IRError(f"loop bounds of {stmt!r} must be integers")
            inner = set(defined)
            inner.add(stmt.var)
            _verify_stmts(program, stmt.body, inner)
            # Registers defined inside a loop may be read after it (their
            # final-iteration value), so propagate definitions out.
            defined.update(inner)
        elif isinstance(stmt, IfStmt):
            _verify_operand_defined(stmt.cond, defined, "if condition")
            if _kind(stmt.cond) != INT:
                raise IRError(f"if condition {stmt.cond} must be an integer")
            then_defs = set(defined)
            else_defs = set(defined)
            _verify_stmts(program, stmt.then_body, then_defs)
            _verify_stmts(program, stmt.else_body, else_defs)
            # Only registers defined on both arms are definitely defined.
            defined.update(then_defs & else_defs)
        else:
            raise IRError(f"unknown statement {stmt!r}")


def _verify_operand_defined(operand: Operand, defined: set[Reg], what: str) -> None:
    if isinstance(operand, Reg) and operand not in defined:
        raise IRError(f"{what} reads undefined register {operand}")


def _verify_op(program: Program, op: Operation, defined: set[Reg]) -> None:
    if op.is_control:
        raise IRError(f"control opcode {op.opcode} not allowed in structured IR")
    for src in op.srcs:
        if isinstance(src, Reg) and src not in defined:
            raise IRError(f"operation {op!r} reads undefined register {src}")
    if op.opcode is Opcode.LOAD:
        decl = program.arrays.get(op.array)
        if decl is None:
            raise IRError(f"load from undeclared array {op.array!r}")
        if _kind(op.srcs[0]) != INT:
            raise IRError(f"load index {op.srcs[0]} must be an integer")
        if op.dest.kind != decl.kind:
            raise IRError(
                f"load of {decl.kind} array {decl.name!r} into"
                f" {op.dest.kind} register {op.dest}"
            )
    elif op.opcode is Opcode.STORE:
        decl = program.arrays.get(op.array)
        if decl is None:
            raise IRError(f"store to undeclared array {op.array!r}")
        if _kind(op.srcs[0]) != INT:
            raise IRError(f"store index {op.srcs[0]} must be an integer")
        if _kind(op.srcs[1]) != decl.kind:
            raise IRError(
                f"store of {_kind(op.srcs[1])} value into"
                f" {decl.kind} array {decl.name!r}"
            )
    else:
        expect_float = op.opcode in _FLOAT_SRC or op.opcode is Opcode.F2I
        for src in op.srcs:
            if expect_float and _kind(src) != FLOAT:
                raise IRError(f"{op!r}: source {src} must be a float")
            if not expect_float and op.opcode is not Opcode.MOV and _kind(src) != INT:
                if op.opcode not in (Opcode.FMOV,):
                    raise IRError(f"{op!r}: source {src} must be an integer")
        if op.dest is not None:
            result_float = op.opcode in FLOAT_RESULT
            if op.opcode is Opcode.MOV:
                result_float = _kind(op.srcs[0]) == FLOAT
            if result_float != op.dest.is_float:
                raise IRError(
                    f"{op!r}: destination kind {op.dest.kind} does not match opcode"
                )
    if op.dest is not None:
        defined.add(op.dest)
