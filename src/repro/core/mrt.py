"""Resource tables: modulo rows while iterations overlap (Lam 1988,
section 2.1), absolute cycles otherwise.

If iterations are initiated every ``s`` cycles, operations scheduled at
times ``t`` and ``t + k*s`` execute simultaneously, one from each of two
different iterations, so resource usage at time ``t`` is accounted at row
``t mod s``.  The steady state is resource-feasible iff no row of the
modulo table exceeds the machine's per-cycle resource limits.

Both tables hold integer usage counts keyed by interned resource index,
and both read a reservation pattern's pre-compiled cells (see
:class:`repro.machine.packed.PackedReservation`) from the table's own
``packing`` slot, with no call per probe.  A probe compares each cell's
count plus its amount against the limit baked into the cell.
"""

from __future__ import annotations

from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


class ModuloReservationTable:
    """Tracks modulo resource usage for one initiation interval: one flat
    count array, row-major over ``row * nres + rid``."""

    __slots__ = ("machine", "s", "_counts", "_nres")

    def __init__(self, machine: MachineDescription, s: int) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.machine = machine
        self.s = s
        self._nres = len(machine.resource_names)
        self._counts: list[int] = [0] * (s * self._nres)

    def usage(self, row: int, resource: str) -> int:
        rid = self.machine.resource_index.get(resource)
        if rid is None:
            return 0
        return self._counts[(row % self.s) * self._nres + rid]

    def place(self, reservation: ReservationTable, time: int) -> None:
        """Place the pattern at exactly ``time`` (the loop-back branch is
        pre-placed this way); a conflict raises and leaves the table
        untouched."""
        if self.place_earliest(reservation, time, time) is None:
            raise ValueError(f"resource conflict placing pattern at time {time}")

    def place_earliest(self, reservation: ReservationTable, earliest: int,
                       latest: int | None = None) -> int | None:
        """Place the pattern at the first time in ``[earliest, latest]``
        where it fits and return that time, or return ``None`` and leave
        the table untouched.

        By the definition of modulo resource usage, if a pattern does not
        fit in ``s`` consecutive slots it fits nowhere, so the scan is
        always capped at ``earliest + s - 1``.  The slot found is committed
        without a second check.  A pattern longer than ``s`` goes by its
        cells summed per row: two cells ``s`` apart share one.
        """
        s = self.s
        cap = earliest + s - 1
        if latest is not None and latest < cap:
            cap = latest
        machine, packed = reservation.packing
        if machine is not self.machine:
            packed = self.machine.packed(reservation)
        counts = self._counts
        nres = self._nres
        cells = packed.cells
        if packed.length > s:
            cells = packed.modulo_cells(s)
        for time in range(earliest, cap + 1):
            for offset, rid, amount, limit in cells:
                if counts[((time + offset) % s) * nres + rid] + amount > limit:
                    break
            else:
                break
        else:
            return None
        for offset, rid, amount, _limit in cells:
            counts[((time + offset) % s) * nres + rid] += amount
        return time

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


class ResourceGrid:
    """Plain (non-modulo) resource usage over absolute time.

    Usage is keyed by the integer ``time * nres + rid`` (times are
    unbounded here, so a dict rather than a flat array).  Any integer
    time has its own keys, so code emitted before time 0 can be recorded
    at negative times.
    """

    __slots__ = ("machine", "_nres", "_used")

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self._nres = len(machine.resource_names)
        self._used: dict[int, int] = {}

    def place_earliest(self, reservation: ReservationTable, time: int) -> int:
        """Place the pattern at the first time from ``time`` on where it
        fits, and return that time."""
        machine, packed = reservation.packing
        if machine is not self.machine:
            packed = self.machine.packed(reservation)
        cells = packed.cells
        used = self._used
        nres = self._nres
        while True:
            for offset, rid, amount, limit in cells:
                if used.get((time + offset) * nres + rid, 0) + amount > limit:
                    break
            else:
                break
            time += 1
        for offset, rid, amount, _limit in cells:
            key = (time + offset) * nres + rid
            used[key] = used.get(key, 0) + amount
        return time

    def occupy(self, reservation: ReservationTable, time: int) -> None:
        """Record the pattern at ``time`` without checking it: for code
        already emitted, whose mutually exclusive arms may share a unit
        and so push a count past its limit."""
        machine, packed = reservation.packing
        if machine is not self.machine:
            packed = self.machine.packed(reservation)
        used = self._used
        nres = self._nres
        for offset, rid, amount, _limit in packed.cells:
            key = (time + offset) * nres + rid
            used[key] = used.get(key, 0) + amount
