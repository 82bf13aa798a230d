"""Local common-subexpression elimination.

The lowering of array expressions recomputes address arithmetic (a store
and a load of ``c[ci + j]`` each emit their own ``add``), which inflates
the ALU's share of the resource bound.  This pass value-numbers pure
operations within each straight-line statement list and rewrites later
uses to the first computation.  It is deliberately local: tables do not
flow into or out of loops or conditionals, and any redefinition of an
operand or result register invalidates the affected entries, found
through a per-table register index rather than a scan of the table.

Applied by default in :func:`repro.core.compile.compile_program`
(disable with ``CompilerPolicy(cse=False)`` — ablation A5).
"""

from __future__ import annotations

from collections import defaultdict

from repro.ir.operands import Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.scan import collect_defs
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


class _ValueTable:
    """The value numbers of one statement list.

    ``keys_of[r]`` lists every key entered while ``r`` was its value or one
    of its sources, so redefining ``r`` visits only those keys.  A listed
    key may since have been dropped or re-entered with another value, so
    each is checked again before it is dropped.  Every statement list has
    its own table and index: a nested body's redefinition must not touch
    the enclosing list's entries, which the enclosing list invalidates
    itself after the body.
    """

    __slots__ = ("values", "keys_of")

    def __init__(self) -> None:
        self.values: dict[_Key, Reg] = {}
        self.keys_of: defaultdict[Reg, list[_Key]] = defaultdict(list)

    def enter(self, key: _Key, value: Reg) -> None:
        self.values[key] = value
        keys_of = self.keys_of
        keys_of[value].append(key)
        for src in key[1]:
            if isinstance(src, Reg):
                keys_of[src].append(key)


class _Cse:
    def __init__(self, single_def: set[Reg]) -> None:
        self.replace: dict[Reg, Reg] = {}
        #: ``sources_of[new]`` lists the registers ``replace`` has mapped
        #: to ``new`` (some may since have been remapped or dropped).
        self.sources_of: defaultdict[Reg, list[Reg]] = defaultdict(list)
        #: Registers defined exactly once in the whole program.  Only these
        #: may be deleted or used as canonical values: a duplicate of a
        #: multiply-defined register cannot be safely removed, because the
        #: canonical copy may be clobbered before the duplicate's last use.
        self.single_def = single_def

    def _invalidate(self, table: _ValueTable, reg: Reg) -> None:
        """``reg`` is being redefined: drop every value-number built on it
        and every pending substitution that still points at it."""
        keys = table.keys_of.pop(reg, None)
        if keys:
            values = table.values
            for key in keys:
                value = values.get(key)
                if value is not None and (value == reg or reg in key[1]):
                    del values[key]
        olds = self.sources_of.pop(reg, None)
        if olds:
            replace = self.replace
            for old in olds:
                if replace.get(old) == reg:
                    del replace[old]

    def run_stmts(self, stmts: list[Stmt]) -> list[Stmt]:
        table = _ValueTable()
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
                for reg in collect_defs(new.then_body) | collect_defs(new.else_body):
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
                for reg in collect_defs(new.body) | {stmt.var}:
                    self.replace.pop(reg, None)
                    self._invalidate(table, reg)
            else:
                raise TypeError(f"unknown statement {stmt!r}")
        return out

    def _run_op(self, op: Operation, table: _ValueTable) -> list[Stmt]:
        srcs = tuple(_substitute(src, self.replace) for src in op.srcs)
        if op.opcode in _PURE and op.dest is not None:
            key = (op.opcode, srcs)
            existing = table.values.get(key)
            if (
                existing is not None
                and op.dest in self.single_def
                and existing in self.single_def
            ):
                # Reuse the earlier result; later reads of op.dest read the
                # canonical register instead.
                self.replace[op.dest] = existing
                self.sources_of[existing].append(op.dest)
                self._invalidate(table, op.dest)
                return []
            self.replace.pop(op.dest, None)
            self._invalidate(table, op.dest)
            table.enter(key, op.dest)
            return [op.with_operands(op.dest, srcs)]
        if op.dest is not None:
            self.replace.pop(op.dest, None)
            self._invalidate(table, op.dest)
        return [op.with_operands(op.dest, srcs)]


def _single_def_regs(program: Program) -> set[Reg]:
    """Registers defined exactly once in ``program`` (a loop defines its
    induction variable)."""
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
    return {reg for reg, n in def_counts.items() if n == 1}


def eliminate_common_subexpressions(program: Program) -> Program:
    """Return a new program with locally redundant pure operations removed."""
    cse = _Cse(_single_def_regs(program))
    return Program(program.name, dict(program.arrays), cse.run_stmts(program.body))
