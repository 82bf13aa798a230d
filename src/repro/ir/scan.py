"""Small IR walkers shared by the compiler and the analyses."""

from __future__ import annotations

from typing import Iterator

from repro.ir.operands import Reg
from repro.ir.ops import Operation
from repro.ir.stmts import ForLoop, IfStmt, Stmt


def walk_operations(stmts: list[Stmt]) -> Iterator[Operation]:
    """Every operation under ``stmts``, in source order."""
    for stmt in stmts:
        if isinstance(stmt, Operation):
            yield stmt
        elif isinstance(stmt, ForLoop):
            yield from walk_operations(stmt.body)
        elif isinstance(stmt, IfStmt):
            yield from walk_operations(stmt.then_body)
            yield from walk_operations(stmt.else_body)


def collect_reads(stmts: list[Stmt]) -> set[Reg]:
    """Registers read anywhere under ``stmts`` (including loop bounds and
    branch conditions)."""
    reads: set[Reg] = set()
    for stmt in stmts:
        if isinstance(stmt, Operation):
            reads.update(stmt.src_regs)
        elif isinstance(stmt, ForLoop):
            for bound in (stmt.start, stmt.stop):
                if isinstance(bound, Reg):
                    reads.add(bound)
            reads.update(collect_reads(stmt.body))
        elif isinstance(stmt, IfStmt):
            if isinstance(stmt.cond, Reg):
                reads.add(stmt.cond)
            reads.update(collect_reads(stmt.then_body))
            reads.update(collect_reads(stmt.else_body))
    return reads


def collect_defs(stmts: list[Stmt]) -> set[Reg]:
    """Registers written anywhere under ``stmts``."""
    defs: set[Reg] = set()
    for stmt in stmts:
        if isinstance(stmt, Operation):
            if stmt.dest is not None:
                defs.add(stmt.dest)
        elif isinstance(stmt, ForLoop):
            defs.add(stmt.var)
            defs.update(collect_defs(stmt.body))
        elif isinstance(stmt, IfStmt):
            defs.update(collect_defs(stmt.then_body))
            defs.update(collect_defs(stmt.else_body))
    return defs
