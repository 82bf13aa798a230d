"""Hardware resources and reservation tables.

The scheduler never reasons about functional units directly; it reasons about
*resources* (named, finite-multiplicity units such as ``fadd``, ``fmul``,
``mem``) and *reservation tables* that say, for each cycle relative to an
operation's issue time, how many units of each resource the operation holds.

A :class:`ReservationTable` is the one form of a reservation: a sorted
tuple of ``(time, resource, amount)`` cells keyed by resource *name*, which
the schedulers check against a machine's resource counts as they read it.
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


class ReservationTable:
    """A sparse map ``(time, resource) -> units held``.

    ``cells`` holds the map once, as a sorted tuple of ``(time, resource,
    amount)`` triples with positive amounts, and ``length`` the number of
    cycles spanned (1 + last occupied relative time).  Both are set when
    the table is built and never change: every combinator returns a new
    table.  Resources are plain names; the schedulers check them against
    a machine's :attr:`~repro.machine.MachineDescription.resources`.
    """

    __slots__ = ("cells", "length")

    def __init__(self, uses: Iterable[ResourceUse] = ()) -> None:
        cells: dict[tuple[int, str], int] = {}
        for use in uses:
            key = (use.time, use.resource)
            cells[key] = cells.get(key, 0) + use.amount
        self._set_cells(cells)

    def _set_cells(self, cells: Mapping[tuple[int, str], int]) -> None:
        self.cells: tuple[tuple[int, str, int], ...] = tuple(sorted(
            (time, resource, amount)
            for (time, resource), amount in cells.items()
            if amount > 0
        ))
        self.length = 1 + self.cells[-1][0] if self.cells else 0

    def _cell_map(self) -> dict[tuple[int, str], int]:
        return {(time, resource): amount for time, resource, amount in self.cells}

    def __reduce__(self) -> tuple:
        return (ReservationTable.from_cells, (self._cell_map(),))

    @classmethod
    def single(cls, resource: str, time: int = 0, amount: int = 1) -> "ReservationTable":
        """Table of an operation holding one resource for one cycle."""
        return cls([ResourceUse(time, resource, amount)])

    @classmethod
    def from_cells(cls, cells: Mapping[tuple[int, str], int]) -> "ReservationTable":
        table = cls.__new__(cls)
        table._set_cells(cells)
        return table

    # -- inspection ---------------------------------------------------------

    def __iter__(self) -> Iterator[tuple[int, str, int]]:
        return iter(self.cells)

    def __bool__(self) -> bool:
        return bool(self.cells)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservationTable):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self) -> int:
        return hash(self.cells)

    def amount_at(self, time: int, resource: str) -> int:
        for cell_time, cell_resource, amount in self.cells:
            if cell_time == time and cell_resource == resource:
                return amount
        return 0

    def resources(self) -> set[str]:
        return {resource for _, resource, _ in self.cells}

    def total_use(self, resource: str) -> int:
        """Total unit-cycles of ``resource`` held (drives the resource bound
        on the initiation interval)."""
        return sum(amount for _, res, amount in self.cells if res == resource)

    def modulo_cells(self, s: int) -> tuple[tuple[int, str, int], ...]:
        """The cells folded onto ``s`` modulo rows, as ``(row, resource,
        amount)`` with amounts summed per row and resource: two cells
        ``s`` apart hold their unit in the same row (Lam 1988, section
        2.1)."""
        folded: dict[tuple[int, str], int] = {}
        for time, resource, amount in self.cells:
            key = (time % s, resource)
            folded[key] = folded.get(key, 0) + amount
        return tuple(
            (row, resource, amount) for (row, resource), amount in folded.items()
        )

    # -- combinators --------------------------------------------------------

    def shifted(self, delta: int) -> "ReservationTable":
        """The same usage pattern starting ``delta`` cycles later."""
        if delta == 0:
            return self
        return ReservationTable.from_cells(
            {(time + delta, res): amt for time, res, amt in self.cells}
        )

    def merged(self, other: "ReservationTable") -> "ReservationTable":
        """Summed usage: both patterns active simultaneously."""
        cells = self._cell_map()
        for time, resource, amount in other.cells:
            key = (time, resource)
            cells[key] = cells.get(key, 0) + amount
        return ReservationTable.from_cells(cells)

    def union_max(self, other: "ReservationTable") -> "ReservationTable":
        """Entrywise maximum: either pattern may be active, never both.

        This is the combinator for hierarchically reduced conditionals: the
        reduced node's table is the max of the THEN and ELSE branch tables.
        """
        cells = self._cell_map()
        for time, resource, amount in other.cells:
            key = (time, resource)
            cells[key] = max(cells.get(key, 0), amount)
        return ReservationTable.from_cells(cells)

    def saturated(self, resources: Mapping[str, int], length: int) -> "ReservationTable":
        """All units of every resource held for ``length`` cycles.

        Used when reducing an inner loop: the steady state of a pipelined
        loop must not be overlapped with outside operations, so all its
        resources are marked as consumed (Lam 1988, section 3.2).
        """
        cells = self._cell_map()
        for time in range(length):
            for name, count in resources.items():
                cells[(time, name)] = count
        return ReservationTable.from_cells(cells)

    def __repr__(self) -> str:
        cells = ", ".join(f"t{t}:{r}x{a}" for t, r, a in self.cells)
        return f"ReservationTable({cells})"
