"""Integer-packed reservation patterns.

The scheduler's inner loops probe the modulo reservation table once per
candidate slot per placement, for every II attempt — by far the hottest
resource-side path in the compiler.  A :class:`~repro.machine.resources.
ReservationTable` is the wrong shape for that: its cells are keyed by
``(time, resource-name)`` and every probe re-iterates a sorted dict and
re-resolves names against the machine's limits.

A :class:`PackedReservation` compiles one reservation table *for one
machine* into flat integer data, once:

``cells``
    ``(offset, rid, amount, limit)`` tuples with the resource interned to
    its dense machine index and the per-cycle limit baked in, so the
    general feasibility check is pure integer compares against a flat
    usage array.
``mask_cells``
    For offsets whose uses all land on unit-capacity resources (amount 1,
    limit 1 — the common case on WARP/SIMPLE, where every functional unit
    is single), one ``(offset, bitmask)`` pair combining those uses.  A
    modulo row's unit-capacity usage is mirrored into one integer, so a
    feasibility probe is ``row_mask & pattern_mask`` — no dict, no loop
    over resources.
``pure``
    True when *every* cell is maskable; then ``fits``/``place_earliest``
    run entirely on bit tests (counted by the ambient observer's
    ``mrt_bitmask_fast_path``).

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

    __slots__ = ("cells", "mask_cells", "pure", "length")

    def __init__(
        self,
        cells: tuple[tuple[int, int, int, int], ...],
        mask_cells: tuple[tuple[int, int], ...],
        pure: bool,
        length: int,
    ) -> None:
        self.cells = cells
        self.mask_cells = mask_cells
        self.pure = pure
        self.length = length

    @classmethod
    def compile(
        cls, table: "ReservationTable", machine: "MachineDescription"
    ) -> "PackedReservation":
        """Intern ``table``'s cells against ``machine``.

        Raises ``KeyError`` for a resource the machine does not define
        (the same failure the dict-probing path produced).
        """
        index = machine.resource_index
        counts = machine.unit_counts
        bits = machine.unit_bits
        cells: list[tuple[int, int, int, int]] = []
        masks: dict[int, int] = {}
        pure = True
        length = 0
        for offset, resource, amount in table:
            rid = index[resource]
            limit = counts[rid]
            cells.append((offset, rid, amount, limit))
            if offset >= length:
                length = offset + 1
            if amount == 1 and bits[rid]:
                masks[offset] = masks.get(offset, 0) | bits[rid]
            else:
                pure = False
        return cls(
            tuple(cells),
            tuple(sorted(masks.items())),
            pure and bool(cells),
            length,
        )

    def __repr__(self) -> str:
        kind = "pure" if self.pure else "mixed"
        return f"PackedReservation({len(self.cells)} cells, {kind})"
