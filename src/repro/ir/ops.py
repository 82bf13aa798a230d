"""Operations: the atomic schedulable units of the IR.

Each operation corresponds to one "minimally indivisible sequence" in the
paper's terminology: it issues in one cycle, occupies the resources its
machine op-class declares, and produces its result ``latency`` cycles later.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional

from repro.ir.operands import Operand, Reg


class Opcode(enum.Enum):
    """Opcode vocabulary.  Values match machine op-class names."""

    # Integer ALU.
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    MOD = "mod"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    NEG = "neg"
    NOT = "not"
    MOV = "mov"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"
    EQ = "eq"
    NE = "ne"
    # Floating point.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FNEG = "fneg"
    FMOV = "fmov"
    FABS = "fabs"
    FMAX = "fmax"
    FMIN = "fmin"
    FLT = "flt"
    FLE = "fle"
    FGT = "fgt"
    FGE = "fge"
    FEQ = "feq"
    FNE = "fne"
    F2I = "f2i"
    I2F = "i2f"
    # Memory.
    LOAD = "load"
    STORE = "store"
    # Control (emitted code only; structured IR has no explicit branches).
    CJUMP = "cjump"
    JUMP = "jump"
    CBR = "cbr"
    NOP = "nop"

    # Members are singletons compared by identity, so the identity hash is
    # exact and runs in C (``Enum.__hash__`` is a Python call per lookup).
    # No code iterates a set of opcodes to produce output, so the
    # per-process hash order is never observable.
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Opcode.{self.name}"


#: Opcodes whose result register is a float.
FLOAT_RESULT = frozenset(
    {
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FNEG,
        Opcode.FMOV, Opcode.FABS, Opcode.FMAX, Opcode.FMIN, Opcode.I2F,
    }
)

#: Opcodes that compare floats but produce an integer truth value.
FLOAT_COMPARE = frozenset(
    {Opcode.FLT, Opcode.FLE, Opcode.FGT, Opcode.FGE, Opcode.FEQ, Opcode.FNE}
)

#: Two-source arithmetic/compare opcodes.
BINARY = frozenset(
    {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.MOD,
        Opcode.AND, Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR,
        Opcode.LT, Opcode.LE, Opcode.GT, Opcode.GE, Opcode.EQ, Opcode.NE,
        Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
        Opcode.FMAX, Opcode.FMIN,
        Opcode.FLT, Opcode.FLE, Opcode.FGT, Opcode.FGE, Opcode.FEQ, Opcode.FNE,
    }
)

#: Single-source opcodes.
UNARY = frozenset(
    {
        Opcode.NEG, Opcode.NOT, Opcode.MOV, Opcode.FNEG, Opcode.FMOV,
        Opcode.FABS, Opcode.F2I, Opcode.I2F,
    }
)


def _int_div(a: int, b: int) -> int:
    return int(operator.truediv(a, b)) if b else 0


_EVAL: dict[Opcode, Callable] = {
    Opcode.ADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul,
    Opcode.DIV: _int_div,
    Opcode.MOD: lambda a, b: int(math.fmod(a, b)) if b else 0,
    Opcode.AND: operator.and_,
    Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: operator.lshift,
    Opcode.SHR: operator.rshift,
    Opcode.NEG: operator.neg,
    Opcode.NOT: lambda a: ~a,
    Opcode.MOV: lambda a: a,
    Opcode.LT: lambda a, b: int(a < b),
    Opcode.LE: lambda a, b: int(a <= b),
    Opcode.GT: lambda a, b: int(a > b),
    Opcode.GE: lambda a, b: int(a >= b),
    Opcode.EQ: lambda a, b: int(a == b),
    Opcode.NE: lambda a, b: int(a != b),
    Opcode.FADD: operator.add,
    Opcode.FSUB: operator.sub,
    Opcode.FMUL: operator.mul,
    Opcode.FDIV: lambda a, b: a / b if b else 0.0,
    Opcode.FNEG: operator.neg,
    Opcode.FMOV: lambda a: a,
    Opcode.FABS: abs,
    Opcode.FMAX: max,
    Opcode.FMIN: min,
    Opcode.FLT: lambda a, b: int(a < b),
    Opcode.FLE: lambda a, b: int(a <= b),
    Opcode.FGT: lambda a, b: int(a > b),
    Opcode.FGE: lambda a, b: int(a >= b),
    Opcode.FEQ: lambda a, b: int(a == b),
    Opcode.FNE: lambda a, b: int(a != b),
    Opcode.F2I: lambda a: int(a),
    Opcode.I2F: lambda a: float(a),
}


def evaluate(opcode: Opcode, *args):
    """Evaluate a pure (non-memory, non-control) opcode on Python values."""
    try:
        fn = _EVAL[opcode]
    except KeyError:
        raise ValueError(f"opcode {opcode} is not a pure arithmetic op") from None
    return fn(*args)


@dataclass(frozen=True)
class Operation:
    """One IR operation.

    Arithmetic:  ``dest = opcode(srcs...)``.
    ``LOAD``:    ``dest = array[srcs[0] + offset]``.
    ``STORE``:   ``array[srcs[0] + offset] = srcs[1]``.
    ``CJUMP``:   decrement hardware loop counter, branch to ``target`` while
                 it stays positive (emitted code only).
    ``CBR``:     record conditional outcome of ``srcs[0]`` (emitted code only).
    """

    opcode: Opcode
    dest: Optional[Reg] = None
    srcs: tuple[Operand, ...] = ()
    array: Optional[str] = None
    offset: int = 0
    target: Optional[str] = None

    def __post_init__(self) -> None:
        if self.opcode in BINARY and len(self.srcs) != 2:
            raise ValueError(f"{self.opcode} needs 2 sources, got {len(self.srcs)}")
        if self.opcode in UNARY and len(self.srcs) != 1:
            raise ValueError(f"{self.opcode} needs 1 source, got {len(self.srcs)}")
        if self.opcode is Opcode.LOAD:
            if self.array is None or self.dest is None or len(self.srcs) != 1:
                raise ValueError("load needs array, dest and one index source")
        if self.opcode is Opcode.STORE:
            if self.array is None or self.dest is not None or len(self.srcs) != 2:
                raise ValueError("store needs array and (index, value) sources")

    @property
    def is_memory(self) -> bool:
        return self.opcode in (Opcode.LOAD, Opcode.STORE)

    @property
    def is_control(self) -> bool:
        return self.opcode in (Opcode.CJUMP, Opcode.JUMP, Opcode.CBR)

    @property
    def reads(self) -> tuple[Operand, ...]:
        return self.srcs

    @property
    def src_regs(self) -> tuple[Reg, ...]:
        return tuple(s for s in self.srcs if isinstance(s, Reg))

    def with_operands(
        self,
        dest: Optional[Reg],
        srcs: tuple[Operand, ...],
    ) -> "Operation":
        """Copy with substituted operands (used by CSE, unrolling and
        emit's renaming).

        Contract: ``dest`` and ``srcs`` map this operation's operands one
        to one (``dest`` is ``None`` exactly when ``self.dest`` is, and
        ``srcs`` has as many entries as ``self.srcs``), so the copy has
        this operation's shape.  The checks of ``__post_init__`` depend
        only on that shape, which this operation already passed, so the
        copy is made from ``__dict__`` without running them again.
        """
        fields = self.__dict__.copy()
        fields["dest"] = dest
        fields["srcs"] = srcs
        copy = object.__new__(Operation)
        object.__setattr__(copy, "__dict__", fields)
        return copy

    def __repr__(self) -> str:
        if self.opcode is Opcode.LOAD:
            return f"{self.dest} = load {self.array}[{self.srcs[0]}{self.offset:+d}]"
        if self.opcode is Opcode.STORE:
            return f"store {self.array}[{self.srcs[0]}{self.offset:+d}] = {self.srcs[1]}"
        if self.opcode is Opcode.CJUMP:
            return f"cjump {self.target}"
        if self.opcode is Opcode.CBR:
            return f"cbr {self.srcs[0]}"
        srcs = ", ".join(map(repr, self.srcs))
        if self.dest is None:
            return f"{self.opcode.value} {srcs}"
        return f"{self.dest} = {self.opcode.value} {srcs}"
