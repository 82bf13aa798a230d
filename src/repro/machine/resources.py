"""Hardware resources and reservation tables.

The scheduler never reasons about functional units directly; it reasons about
*resources* (named, finite-multiplicity units such as ``fadd``, ``fmul``,
``mem``) and *reservation tables* that say, for each cycle relative to an
operation's issue time, how many units of each resource the operation holds.

Reservation tables compose: the table of a hierarchically reduced construct
(an IF or an inner loop) is built by shifting and combining the tables of its
components (Lam 1988, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


@dataclass(frozen=True, order=True)
class Resource:
    """A named machine resource with a fixed number of identical units.

    ``Resource("mem", 1)`` is a single-ported memory; ``Resource("alu", 2)``
    would be a pair of interchangeable ALUs.
    """

    name: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"resource {self.name!r} needs count >= 1, got {self.count}")

    def __repr__(self) -> str:
        return f"Resource({self.name!r}, {self.count})"


@dataclass(frozen=True)
class ResourceUse:
    """One cell of a reservation table: ``amount`` units of ``resource`` held
    at cycle ``time`` relative to issue."""

    time: int
    resource: str
    amount: int = 1

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"resource use at negative time {self.time}")
        if self.amount < 1:
            raise ValueError(f"resource use needs amount >= 1, got {self.amount}")


#: The ``packing`` of a table no machine has packed.
_UNPACKED = (None, None)


class ReservationTable:
    """A sparse map ``(time, resource) -> units held``.

    Immutable by convention: every table's cells are assigned once, when
    it is built, and all combinators return new tables.

    ``packing`` holds ``(machine, PackedReservation)`` once a scheduler
    has compiled the table for a machine (see
    :meth:`repro.machine.description.MachineDescription.packed`), and
    ``(None, None)`` before.  It is derived state: a pickled or copied
    table leaves it behind.
    """

    __slots__ = ("_cells", "length", "packing")

    def __init__(self, uses: Iterable[ResourceUse] = ()) -> None:
        cells: dict[tuple[int, str], int] = {}
        for use in uses:
            key = (use.time, use.resource)
            cells[key] = cells.get(key, 0) + use.amount
        self._set_cells(cells)

    def _set_cells(self, cells: dict[tuple[int, str], int]) -> None:
        self._cells = cells
        #: Number of cycles spanned (1 + last occupied relative time).
        self.length = 1 + max(cells)[0] if cells else 0
        self.packing = _UNPACKED

    def __reduce__(self) -> tuple:
        return (ReservationTable.from_cells, (self._cells,))

    @classmethod
    def single(cls, resource: str, time: int = 0, amount: int = 1) -> "ReservationTable":
        """Table of an operation holding one resource for one cycle."""
        return cls([ResourceUse(time, resource, amount)])

    @classmethod
    def from_cells(cls, cells: Mapping[tuple[int, str], int]) -> "ReservationTable":
        table = cls.__new__(cls)
        table._set_cells({k: v for k, v in cells.items() if v > 0})
        return table

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, str, int]]:
        for (time, resource), amount in sorted(self._cells.items()):
            yield time, resource, amount

    def __bool__(self) -> bool:
        return bool(self._cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservationTable):
            return NotImplemented
        return self._cells == other._cells

    def __hash__(self) -> int:
        return hash(frozenset(self._cells.items()))

    def amount_at(self, time: int, resource: str) -> int:
        return self._cells.get((time, resource), 0)

    def resources(self) -> set[str]:
        return {resource for _, resource in self._cells}

    def total_use(self, resource: str) -> int:
        """Total unit-cycles of ``resource`` held (drives the resource bound
        on the initiation interval)."""
        return sum(
            amount for (_, res), amount in self._cells.items() if res == resource
        )

    # -- combinators --------------------------------------------------------

    def shifted(self, delta: int) -> "ReservationTable":
        """The same usage pattern starting ``delta`` cycles later."""
        if delta == 0:
            return self
        return ReservationTable.from_cells(
            {(time + delta, res): amt for (time, res), amt in self._cells.items()}
        )

    def merged(self, other: "ReservationTable") -> "ReservationTable":
        """Summed usage: both patterns active simultaneously."""
        cells = dict(self._cells)
        for key, amount in other._cells.items():
            cells[key] = cells.get(key, 0) + amount
        return ReservationTable.from_cells(cells)

    def union_max(self, other: "ReservationTable") -> "ReservationTable":
        """Entrywise maximum: either pattern may be active, never both.

        This is the combinator for hierarchically reduced conditionals: the
        reduced node's table is the max of the THEN and ELSE branch tables.
        """
        cells = dict(self._cells)
        for key, amount in other._cells.items():
            cells[key] = max(cells.get(key, 0), amount)
        return ReservationTable.from_cells(cells)

    def saturated(self, resources: Mapping[str, int], length: int) -> "ReservationTable":
        """All units of every resource held for ``length`` cycles.

        Used when reducing an inner loop: the steady state of a pipelined
        loop must not be overlapped with outside operations, so all its
        resources are marked as consumed (Lam 1988, section 3.2).
        """
        cells = dict(self._cells)
        for time in range(length):
            for name, count in resources.items():
                cells[(time, name)] = count
        return ReservationTable.from_cells(cells)

    def __repr__(self) -> str:
        cells = ", ".join(f"t{t}:{r}x{a}" for t, r, a in self)
        return f"ReservationTable({cells})"
