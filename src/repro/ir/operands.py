"""Operands: virtual registers and immediates."""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Union

#: Register kinds.  The IR is weakly typed: a register holds either an
#: integer or a float, and the verifier checks opcode/operand agreement.
INT = "int"
FLOAT = "float"


class Reg(tuple):
    """A virtual register: the immutable pair ``(name, kind)``.

    A ``tuple`` subclass, so hashing, equality and ordering (by name, then
    kind) run in C; registers key most of the compiler's dicts and sets.
    A register therefore also equals the plain tuple ``(name, kind)``.
    """

    __slots__ = ()

    def __new__(cls, name: str, kind: str = INT) -> "Reg":
        if kind not in (INT, FLOAT):
            raise ValueError(f"bad register kind {kind!r}")
        return tuple.__new__(cls, (name, kind))

    name = property(operator.itemgetter(0), doc="The register's name.")
    kind = property(operator.itemgetter(1), doc="``INT`` or ``FLOAT``.")

    def __getnewargs__(self) -> tuple[str, str]:
        # Pickling and copying rebuild through ``__new__(name, kind)``;
        # ``tuple``'s own hook would pass the pair as one argument.
        return tuple(self)

    def __repr__(self) -> str:
        return f"%{self[0]}"

    @property
    def is_float(self) -> bool:
        return self[1] == FLOAT


@dataclass(frozen=True)
class Imm:
    """An immediate constant operand."""

    value: Union[int, float]

    def __repr__(self) -> str:
        return f"#{self.value}"

    @property
    def kind(self) -> str:
        return FLOAT if isinstance(self.value, float) else INT

    @property
    def is_float(self) -> bool:
        return isinstance(self.value, float)


Operand = Union[Reg, Imm]


def as_operand(value: "Operand | int | float") -> Operand:
    """Coerce Python numbers to immediates; pass registers through."""
    if isinstance(value, (Reg, Imm)):
        return value
    if isinstance(value, bool):
        return Imm(int(value))
    if isinstance(value, (int, float)):
        return Imm(value)
    raise TypeError(f"cannot use {value!r} as an operand")
