"""The modulo resource reservation table (Lam 1988, section 2.1).

If iterations are initiated every ``s`` cycles, operations scheduled at
times ``t`` and ``t + k*s`` execute simultaneously, one from each of two
different iterations, so resource usage at time ``t`` is accounted at row
``t mod s``.  The steady state is resource-feasible iff no row of the
modulo table exceeds the machine's per-cycle resource limits.

The table is integer-packed.  Each modulo row keeps one bitmask of its
occupied unit-capacity resources plus a flat usage-count array over all
interned resources; reservation patterns arrive pre-compiled (see
:class:`repro.machine.packed.PackedReservation`), so a feasibility probe
on an all-unit-capacity machine like WARP is a handful of
``row_mask & pattern_mask`` tests and ``earliest_fit`` is a tight scan
over precomputed row masks (counted as ``mrt_bitmask_fast_path`` by the
ambient observer).
"""

from __future__ import annotations

from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable
from repro.obs import trace as obs


class ModuloReservationTable:
    """Tracks modulo resource usage for one initiation interval.

    Integer-packed: rows are positions in flat arrays, resources are
    interned machine indices, and unit-capacity occupancy is mirrored
    into one bitmask per row.
    """

    __slots__ = ("machine", "s", "_masks", "_counts", "_nres", "_bits")

    def __init__(self, machine: MachineDescription, s: int) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.machine = machine
        self.s = s
        self._nres = len(machine.resource_names)
        self._bits = machine.unit_bits
        self._masks: list[int] = [0] * s
        self._counts: list[int] = [0] * (s * self._nres)

    def usage(self, row: int, resource: str) -> int:
        rid = self.machine.resource_index.get(resource)
        if rid is None:
            return 0
        return self._counts[(row % self.s) * self._nres + rid]

    def fits(self, reservation: ReservationTable, time: int) -> bool:
        """Would placing this pattern at issue time ``time`` stay within the
        machine's limits in every affected row?"""
        packed = self.machine.packed(reservation)
        s = self.s
        if packed.pure:
            masks = self._masks
            for offset, mask in packed.mask_cells:
                if masks[(time + offset) % s] & mask:
                    return False
            return True
        counts = self._counts
        nres = self._nres
        for offset, rid, amount, limit in packed.cells:
            if counts[((time + offset) % s) * nres + rid] + amount > limit:
                return False
        return True

    def place(self, reservation: ReservationTable, time: int) -> None:
        packed = self.machine.packed(reservation)
        s = self.s
        counts = self._counts
        masks = self._masks
        nres = self._nres
        # Inline fits() on the already-fetched pattern: place is always
        # preceded by a fit probe on the hot path, so the validation here
        # must not pay a second packed() lookup.
        if packed.pure:
            for offset, mask in packed.mask_cells:
                if masks[(time + offset) % s] & mask:
                    raise ValueError(
                        f"resource conflict placing pattern at time {time}"
                    )
        else:
            for offset, rid, amount, limit in packed.cells:
                if counts[((time + offset) % s) * nres + rid] + amount > limit:
                    raise ValueError(
                        f"resource conflict placing pattern at time {time}"
                    )
        bits = self._bits
        for offset, rid, amount, _limit in packed.cells:
            row = (time + offset) % s
            counts[row * nres + rid] += amount
            bit = bits[rid]
            if bit:
                masks[row] |= bit

    def remove(self, reservation: ReservationTable, time: int) -> None:
        """Remove a previously placed pattern, all-or-nothing.

        The whole pattern is validated before any row is touched, so a
        failed remove leaves the table exactly as it was.  Entries landing
        on the same (row, resource) cell are summed first: validating them
        one by one against the unmodified table would accept removals the
        cell cannot cover.
        """
        packed = self.machine.packed(reservation)
        s = self.s
        counts = self._counts
        nres = self._nres
        needed: dict[int, int] = {}
        for offset, rid, amount, _limit in packed.cells:
            idx = ((time + offset) % s) * nres + rid
            needed[idx] = needed.get(idx, 0) + amount
        for idx, amount in needed.items():
            if counts[idx] < amount:
                raise ValueError("removing a pattern that was never placed")
        masks = self._masks
        bits = self._bits
        for idx, amount in needed.items():
            counts[idx] -= amount
            rid = idx % nres
            bit = bits[rid]
            if bit and not counts[idx]:
                masks[idx // nres] &= ~bit

    def earliest_fit(self, reservation: ReservationTable, earliest: int,
                     latest: int | None = None) -> int | None:
        """First time in ``[earliest, latest]`` where the pattern fits.

        By the definition of modulo resource usage, if a pattern does not
        fit in ``s`` consecutive slots it fits nowhere, so the scan is
        always capped at ``earliest + s - 1``.
        """
        s = self.s
        cap = earliest + s - 1
        if latest is not None and latest < cap:
            cap = latest
        packed = self.machine.packed(reservation)
        if packed.pure:
            obs.count("mrt_bitmask_fast_path")
            masks = self._masks
            cells = packed.mask_cells
            if len(cells) == 1:
                offset, mask = cells[0]
                for time in range(earliest, cap + 1):
                    if not masks[(time + offset) % s] & mask:
                        return time
                return None
            for time in range(earliest, cap + 1):
                for offset, mask in cells:
                    if masks[(time + offset) % s] & mask:
                        break
                else:
                    return time
            return None
        counts = self._counts
        nres = self._nres
        cells = packed.cells
        for time in range(earliest, cap + 1):
            for offset, rid, amount, limit in cells:
                if counts[((time + offset) % s) * nres + rid] + amount > limit:
                    break
            else:
                return time
        return None

    def __repr__(self) -> str:
        names = self.machine.resource_names
        nres = self._nres
        rows = "; ".join(
            f"{row}:" + ",".join(
                f"{names[rid]}x{self._counts[row * nres + rid]}"
                for rid in range(nres)
                if self._counts[row * nres + rid]
            )
            for row in range(self.s)
        )
        return f"MRT(s={self.s}, {rows})"

