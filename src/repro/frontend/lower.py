"""Lowering: W2-like AST -> loop IR.

Responsibilities: symbol resolution, int/float type checking with implicit
int-to-float promotion, intrinsic expansion, and array-subscript pattern
matching (``a[i + 3]`` becomes a base register plus constant offset, which
is what gives the dependence analyser exact iteration distances).

Intrinsic expansions mirror the Warp library functions the paper mentions:
``inverse`` expands into 7 floating-point operations (a divide plus two
Newton refinements) and ``sqrt`` into an ~19-operation Newton sequence, so
kernels using them exercise the same scheduling pressure as in Table 4-2.
"""

from __future__ import annotations

from typing import Optional

from repro.frontend import ast
from repro.ir.operands import FLOAT, INT, Imm, Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import ForLoop, IfStmt, Program, Stmt


class LowerError(Exception):
    pass


_INT_BINOPS = {
    "+": Opcode.ADD, "-": Opcode.SUB, "*": Opcode.MUL,
    "div": Opcode.DIV, "mod": Opcode.MOD,
    "and": Opcode.AND, "or": Opcode.OR,
    "<": Opcode.LT, "<=": Opcode.LE, ">": Opcode.GT, ">=": Opcode.GE,
    "=": Opcode.EQ, "<>": Opcode.NE,
}

_FLOAT_BINOPS = {
    "+": Opcode.FADD, "-": Opcode.FSUB, "*": Opcode.FMUL, "/": Opcode.FDIV,
    "<": Opcode.FLT, "<=": Opcode.FLE, ">": Opcode.FGT, ">=": Opcode.FGE,
    "=": Opcode.FEQ, "<>": Opcode.FNE,
}

_COMPARISONS = frozenset({"<", "<=", ">", ">=", "=", "<>"})


class _Lowerer:
    def __init__(self, source: ast.SourceProgram) -> None:
        self.source = source
        self.program = Program(source.name)
        self.scalars: dict[str, Reg] = {}
        self._temp = 0
        self._fresh_temps: set[Reg] = set()
        for decl in source.decls:
            if decl.array_size is not None:
                self.program.declare(decl.name, decl.array_size, decl.kind)
            else:
                self.scalars[decl.name] = Reg(decl.name, decl.kind)

    # -- helpers ---------------------------------------------------------------

    def _fresh(self, kind: str) -> Reg:
        self._temp += 1
        reg = Reg(f".t{self._temp}", kind)
        self._fresh_temps.add(reg)
        return reg

    def _emit(self, out: list[Stmt], opcode: Opcode, srcs: tuple[Operand, ...],
              kind: str, dest: Optional[Reg] = None) -> Reg:
        if dest is None:
            dest = self._fresh(kind)
        out.append(Operation(opcode, dest, srcs))
        return dest

    def _promote(self, out: list[Stmt], operand: Operand, line: int) -> Operand:
        """Int operand -> float."""
        if operand.kind == FLOAT:
            return operand
        if isinstance(operand, Imm):
            return Imm(float(operand.value))
        return self._emit(out, Opcode.I2F, (operand,), FLOAT)

    def _require_int(self, operand: Operand, line: int, what: str) -> Operand:
        if operand.kind != INT:
            raise LowerError(f"line {line}: {what} must be an integer")
        return operand

    # -- expressions -------------------------------------------------------------

    def lower_expr(self, expr: ast.Expr, out: list[Stmt]) -> Operand:
        if isinstance(expr, ast.Num):
            return Imm(expr.value)
        if isinstance(expr, ast.Var):
            reg = self.scalars.get(expr.name)
            if reg is None:
                raise LowerError(
                    f"line {expr.line}: undeclared variable {expr.name!r}"
                )
            return reg
        if isinstance(expr, ast.ArrayRef):
            return self._lower_load(expr, out)
        if isinstance(expr, ast.BinOp):
            return self._lower_binop(expr, out)
        if isinstance(expr, ast.UnOp):
            return self._lower_unop(expr, out)
        if isinstance(expr, ast.Call):
            return self._lower_call(expr, out)
        raise LowerError(f"cannot lower expression {expr!r}")

    def _lower_load(self, ref: ast.ArrayRef, out: list[Stmt]) -> Reg:
        decl = self.program.arrays.get(ref.name)
        if decl is None:
            raise LowerError(
                f"line {ref.line}: {ref.name!r} is not a declared array"
            )
        base, offset = self._lower_index(ref.index, out)
        dest = self._fresh(decl.kind)
        out.append(
            Operation(Opcode.LOAD, dest, (base,), array=decl.name, offset=offset)
        )
        return dest

    def _lower_index(self, index: ast.Expr, out: list[Stmt]) -> tuple[Operand, int]:
        """Match ``var +- const`` so dependence distances stay exact."""
        if isinstance(index, ast.Num):
            if not isinstance(index.value, int):
                raise LowerError(f"line {index.line}: array index must be an int")
            return Imm(index.value), 0
        if isinstance(index, ast.Var):
            operand = self.lower_expr(index, out)
            return self._require_int(operand, index.line, "array index"), 0
        if isinstance(index, ast.BinOp) and index.op in ("+", "-"):
            left, right = index.left, index.right
            if isinstance(right, ast.Num) and isinstance(right.value, int):
                base, offset = self._lower_index(left, out)
                delta = right.value if index.op == "+" else -right.value
                return base, offset + delta
            if (
                index.op == "+"
                and isinstance(left, ast.Num)
                and isinstance(left.value, int)
            ):
                base, offset = self._lower_index(right, out)
                return base, offset + left.value
        operand = self.lower_expr(index, out)
        return self._require_int(operand, index.line, "array index"), 0

    def _lower_binop(self, expr: ast.BinOp, out: list[Stmt]) -> Operand:
        left = self.lower_expr(expr.left, out)
        right = self.lower_expr(expr.right, out)
        op = expr.op
        if op in ("and", "or"):
            self._require_int(left, expr.line, f"'{op}' operand")
            self._require_int(right, expr.line, f"'{op}' operand")
            return self._emit(out, _INT_BINOPS[op], (left, right), INT)
        wants_float = left.kind == FLOAT or right.kind == FLOAT or op == "/"
        if op in ("div", "mod") and wants_float:
            raise LowerError(f"line {expr.line}: '{op}' needs integer operands")
        if wants_float:
            left = self._promote(out, left, expr.line)
            right = self._promote(out, right, expr.line)
            opcode = _FLOAT_BINOPS.get(op)
            if opcode is None:
                raise LowerError(f"line {expr.line}: bad float operator {op!r}")
            kind = INT if op in _COMPARISONS else FLOAT
            return self._emit(out, opcode, (left, right), kind)
        opcode = _INT_BINOPS.get(op)
        if opcode is None:
            raise LowerError(f"line {expr.line}: bad integer operator {op!r}")
        return self._emit(out, opcode, (left, right), INT)

    def _lower_unop(self, expr: ast.UnOp, out: list[Stmt]) -> Operand:
        operand = self.lower_expr(expr.operand, out)
        if expr.op == "-":
            if isinstance(operand, Imm):
                return Imm(-operand.value)
            opcode = Opcode.FNEG if operand.kind == FLOAT else Opcode.NEG
            return self._emit(out, opcode, (operand,), operand.kind)
        if expr.op == "not":
            self._require_int(operand, expr.line, "'not' operand")
            return self._emit(out, Opcode.EQ, (operand, Imm(0)), INT)
        raise LowerError(f"line {expr.line}: bad unary operator {expr.op!r}")

    def _lower_call(self, call: ast.Call, out: list[Stmt]) -> Operand:
        def arity(n: int) -> list[Operand]:
            if len(call.args) != n:
                raise LowerError(
                    f"line {call.line}: {call.name}() takes {n} argument(s)"
                )
            return [self.lower_expr(arg, out) for arg in call.args]

        if call.name == "int":
            (value,) = arity(1)
            if value.kind == INT:
                return value
            return self._emit(out, Opcode.F2I, (value,), INT)
        if call.name == "float":
            (value,) = arity(1)
            return self._promote(out, value, call.line)
        if call.name == "abs":
            (value,) = arity(1)
            value = self._promote(out, value, call.line)
            return self._emit(out, Opcode.FABS, (value,), FLOAT)
        if call.name in ("max", "min"):
            first, second = arity(2)
            first = self._promote(out, first, call.line)
            second = self._promote(out, second, call.line)
            opcode = Opcode.FMAX if call.name == "max" else Opcode.FMIN
            return self._emit(out, opcode, (first, second), FLOAT)
        if call.name == "inverse":
            (value,) = arity(1)
            return self._expand_inverse(
                self._promote(out, value, call.line), out
            )
        if call.name == "sqrt":
            (value,) = arity(1)
            return self._expand_sqrt(
                self._promote(out, value, call.line), out
            )
        raise LowerError(f"line {call.line}: unknown intrinsic {call.name!r}")

    def _expand_inverse(self, x: Operand, out: list[Stmt]) -> Reg:
        """1/x as divide + two Newton refinements: 7 flops, like the Warp
        library INVERSE."""
        y = self._emit(out, Opcode.FDIV, (Imm(1.0), x), FLOAT)
        for _ in range(2):
            t = self._emit(out, Opcode.FMUL, (x, y), FLOAT)
            e = self._emit(out, Opcode.FSUB, (Imm(2.0), t), FLOAT)
            y = self._emit(out, Opcode.FMUL, (y, e), FLOAT)
        return y

    def _expand_sqrt(self, x: Operand, out: list[Stmt]) -> Reg:
        """Heron's method, ~19 flops, like the Warp library SQRT."""
        g = self._emit(out, Opcode.FADD, (x, Imm(1.0)), FLOAT)
        g = self._emit(out, Opcode.FMUL, (g, Imm(0.5)), FLOAT)
        for _ in range(5):
            q = self._emit(out, Opcode.FDIV, (x, g), FLOAT)
            s = self._emit(out, Opcode.FADD, (g, q), FLOAT)
            g = self._emit(out, Opcode.FMUL, (s, Imm(0.5)), FLOAT)
        final = self._emit(out, Opcode.FMUL, (g, Imm(1.0)), FLOAT)
        return final

    # -- statements ----------------------------------------------------------------

    def lower_stmts(self, stmts: list[ast.Stmt], out: list[Stmt],
                    loop_vars: frozenset[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ast.Assign):
                self._lower_assign(stmt, out, loop_vars)
            elif isinstance(stmt, ast.For):
                self._lower_for(stmt, out, loop_vars)
            elif isinstance(stmt, ast.If):
                self._lower_if(stmt, out, loop_vars)
            else:
                raise LowerError(f"cannot lower statement {stmt!r}")

    def _lower_assign(self, stmt: ast.Assign, out: list[Stmt],
                      loop_vars: frozenset[str]) -> None:
        if isinstance(stmt.target, ast.ArrayRef):
            decl = self.program.arrays.get(stmt.target.name)
            if decl is None:
                raise LowerError(
                    f"line {stmt.line}: {stmt.target.name!r} is not an array"
                )
            base, offset = self._lower_index(stmt.target.index, out)
            value = self.lower_expr(stmt.value, out)
            if decl.kind == FLOAT:
                value = self._promote(out, value, stmt.line)
            elif value.kind != INT:
                raise LowerError(
                    f"line {stmt.line}: storing a float into int array"
                    f" {decl.name!r} (use int())"
                )
            out.append(
                Operation(Opcode.STORE, None, (base, value),
                          array=decl.name, offset=offset)
            )
            return
        name = stmt.target.name
        if name in loop_vars:
            raise LowerError(
                f"line {stmt.line}: cannot assign to loop variable {name!r}"
            )
        reg = self.scalars.get(name)
        if reg is None:
            raise LowerError(f"line {stmt.line}: undeclared variable {name!r}")
        value = self.lower_expr(stmt.value, out)
        if reg.kind == FLOAT:
            value = self._promote(out, value, stmt.line)
        elif value.kind != INT:
            raise LowerError(
                f"line {stmt.line}: assigning a float to int variable"
                f" {name!r} (use int())"
            )
        # Fold "compute into fresh temp; mov var, temp" into a direct def so
        # accumulators stay single operations (s := s + x is one fadd).
        if isinstance(value, Reg) and value in self._fresh_temps and out:
            last = out[-1]
            if isinstance(last, Operation) and last.dest is value:
                out[-1] = Operation(
                    last.opcode, reg, last.srcs,
                    array=last.array, offset=last.offset, target=last.target,
                )
                return
        opcode = Opcode.FMOV if reg.kind == FLOAT else Opcode.MOV
        out.append(Operation(opcode, reg, (value,)))

    def _lower_for(self, stmt: ast.For, out: list[Stmt],
                   loop_vars: frozenset[str]) -> None:
        var = self.scalars.get(stmt.var)
        if var is None:
            var = Reg(stmt.var, INT)
            self.scalars[stmt.var] = var
        elif var.kind != INT:
            raise LowerError(
                f"line {stmt.line}: loop variable {stmt.var!r} must be an int"
            )
        start = self._loop_bound(stmt.start, out, stmt.line)
        stop = self._loop_bound(stmt.stop, out, stmt.line)
        body: list[Stmt] = []
        self.lower_stmts(stmt.body, body, loop_vars | {stmt.var})
        out.append(ForLoop(var, start, stop, body, stmt.step))

    def _loop_bound(self, expr: ast.Expr, out: list[Stmt], line: int) -> Operand:
        operand = self.lower_expr(expr, out)
        return self._require_int(operand, line, "loop bound")

    def _lower_if(self, stmt: ast.If, out: list[Stmt],
                  loop_vars: frozenset[str]) -> None:
        cond = self.lower_expr(stmt.cond, out)
        self._require_int(cond, stmt.line, "if condition")
        node = IfStmt(cond)
        self.lower_stmts(stmt.then_body, node.then_body, loop_vars)
        self.lower_stmts(stmt.else_body, node.else_body, loop_vars)
        out.append(node)

    def lower(self) -> Program:
        self.lower_stmts(self.source.body, self.program.body, frozenset())
        return self.program


def lower(source: ast.SourceProgram) -> Program:
    """Lower a parsed source program to IR."""
    return _Lowerer(source).lower()
