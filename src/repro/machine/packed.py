"""Integer-packed reservation patterns.

The scheduler's inner loops probe the modulo reservation table once per
candidate slot per placement, for every II attempt — by far the hottest
resource-side path in the compiler.  A :class:`~repro.machine.resources.
ReservationTable` is the wrong shape for that: its cells are keyed by
``(time, resource-name)`` and every probe re-iterates a sorted dict and
re-resolves names against the machine's limits.

A :class:`PackedReservation` compiles one reservation table *for one
machine* into flat integer data, once: ``cells`` holds ``(offset, rid,
amount, limit)`` tuples with the resource interned to its dense machine
index and the per-cycle limit baked in, so a feasibility check is pure
integer compares against a flat usage array.

A table keeps its packing in its own ``packing`` slot, as ``(machine,
PackedReservation)`` (see :meth:`~repro.machine.description.
MachineDescription.packed`): op-class tables are shared by every node of
an opcode, so each is packed once per machine, and the schedulers' hot
paths read the slot with no call.  The machine holds no memo, so nothing
about packing grows with the process or rides along when a compiled
program is pickled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.machine.description import MachineDescription
    from repro.machine.resources import ReservationTable


class PackedReservation:
    """One reservation table compiled against one machine's interning."""

    __slots__ = ("cells", "length")

    def __init__(
        self, cells: tuple[tuple[int, int, int, int], ...], length: int
    ) -> None:
        self.cells = cells
        self.length = length

    @classmethod
    def compile(
        cls, table: "ReservationTable", machine: "MachineDescription"
    ) -> "PackedReservation":
        """Intern ``table``'s cells against ``machine``.

        Raises ``KeyError`` for a resource the machine does not define.
        """
        index = machine.resource_index
        counts = machine.unit_counts
        cells = []
        for offset, resource, amount in table:
            rid = index[resource]
            cells.append((offset, rid, amount, counts[rid]))
        return cls(tuple(cells), table.length)

    def modulo_cells(self, s: int) -> tuple[tuple[int, int, int, int], ...]:
        """The cells folded onto ``s`` modulo rows, amounts summed per
        ``(row, rid)``."""
        folded: dict[tuple[int, int], list[int]] = {}
        for offset, rid, amount, limit in self.cells:
            row = offset % s
            if (row, rid) in folded:
                folded[row, rid][2] += amount
            else:
                folded[row, rid] = [row, rid, amount, limit]
        return tuple(map(tuple, folded.values()))

    def __repr__(self) -> str:
        return f"PackedReservation({len(self.cells)} cells)"
