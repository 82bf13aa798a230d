"""Local common-subexpression elimination.

The lowering of array expressions recomputes address arithmetic (a store
and a load of ``c[ci + j]`` each emit their own ``add``), which inflates
the ALU's share of the resource bound.  This pass value-numbers pure
operations within each straight-line statement list and rewrites later
uses to the first computation.  It is deliberately local: tables do not
flow into or out of loops or conditionals, and any redefinition of an
operand or result register invalidates the affected entries.

Applied by default in :func:`repro.core.compile.compile_program`
(disable with ``CompilerPolicy(cse=False)`` — ablation A5).
"""

from __future__ import annotations

from repro.ir.operands import Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import ForLoop, IfStmt, Program, Stmt

#: Opcodes safe to value-number: pure, deterministic, operand-only.
_PURE = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
        Opcode.NEG, Opcode.NOT, Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE,
        Opcode.EQ, Opcode.NE,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
        Opcode.FABS, Opcode.FMAX, Opcode.FMIN,
        Opcode.FLT, Opcode.FLE, Opcode.FGT, Opcode.FGE, Opcode.FEQ, Opcode.FNE,
        Opcode.F2I, Opcode.I2F,
    }
)

_Key = tuple[Opcode, tuple[Operand, ...]]


def _substitute(operand: Operand, replace: dict[Reg, Reg]) -> Operand:
    if isinstance(operand, Reg):
        return replace.get(operand, operand)
    return operand


class _Cse:
    def __init__(self, single_def: set[Reg]) -> None:
        self.replace: dict[Reg, Reg] = {}
        #: Registers defined exactly once in the whole program.  Only these
        #: may be deleted or used as canonical values: a duplicate of a
        #: multiply-defined register cannot be safely removed, because the
        #: canonical copy may be clobbered before the duplicate's last use.
        self.single_def = single_def

    def _invalidate(self, table: dict[_Key, Reg], reg: Reg) -> None:
        """``reg`` is being redefined: drop every value-number built on it
        and every pending substitution that still points at it."""
        dead = [
            key for key, value in table.items()
            if value == reg or any(src == reg for src in key[1])
        ]
        for key in dead:
            del table[key]
        stale = [old for old, new in self.replace.items() if new == reg]
        for old in stale:
            del self.replace[old]

    def run_stmts(self, stmts: list[Stmt]) -> list[Stmt]:
        table: dict[_Key, Reg] = {}
        out: list[Stmt] = []
        for stmt in stmts:
            if isinstance(stmt, Operation):
                out.extend(self._run_op(stmt, table))
            elif isinstance(stmt, IfStmt):
                cond = _substitute(stmt.cond, self.replace)
                new = IfStmt(
                    cond,
                    self.run_stmts(stmt.then_body),
                    self.run_stmts(stmt.else_body),
                )
                out.append(new)
                for reg in _defined_regs(new.then_body) | _defined_regs(new.else_body):
                    self.replace.pop(reg, None)
                    self._invalidate(table, reg)
            elif isinstance(stmt, ForLoop):
                new = ForLoop(
                    stmt.var,
                    _substitute(stmt.start, self.replace),
                    _substitute(stmt.stop, self.replace),
                    self.run_stmts(stmt.body),
                    stmt.step,
                )
                out.append(new)
                for reg in _defined_regs(new.body) | {stmt.var}:
                    self.replace.pop(reg, None)
                    self._invalidate(table, reg)
            else:
                raise TypeError(f"unknown statement {stmt!r}")
        return out

    def _run_op(self, op: Operation, table: dict[_Key, Reg]) -> list[Stmt]:
        srcs = tuple(_substitute(src, self.replace) for src in op.srcs)
        if op.opcode in _PURE and op.dest is not None:
            key = (op.opcode, srcs)
            existing = table.get(key)
            if (
                existing is not None
                and op.dest in self.single_def
                and existing in self.single_def
            ):
                # Reuse the earlier result; later reads of op.dest read the
                # canonical register instead.
                self.replace[op.dest] = existing
                self._invalidate(table, op.dest)
                return []
            self.replace.pop(op.dest, None)
            self._invalidate(table, op.dest)
            table[key] = op.dest
            return [op.with_operands(op.dest, srcs)]
        if op.dest is not None:
            self.replace.pop(op.dest, None)
            self._invalidate(table, op.dest)
        return [op.with_operands(op.dest, srcs)]


def _defined_regs(stmts: list[Stmt]) -> set[Reg]:
    from repro.ir.scan import collect_defs

    return collect_defs(stmts)


def eliminate_common_subexpressions(program: Program) -> Program:
    """Return a new program with locally redundant pure operations removed."""
    def_counts: dict[Reg, int] = {}

    def count(stmts: list[Stmt]) -> None:
        for stmt in stmts:
            if isinstance(stmt, Operation):
                if stmt.dest is not None:
                    def_counts[stmt.dest] = def_counts.get(stmt.dest, 0) + 1
            elif isinstance(stmt, IfStmt):
                count(stmt.then_body)
                count(stmt.else_body)
            elif isinstance(stmt, ForLoop):
                def_counts[stmt.var] = def_counts.get(stmt.var, 0) + 1
                count(stmt.body)

    count(program.body)
    single_def = {reg for reg, n in def_counts.items() if n == 1}
    cse = _Cse(single_def)
    return Program(program.name, dict(program.arrays), cse.run_stmts(program.body))
