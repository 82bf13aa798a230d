"""Resource tables: modulo rows while iterations overlap (Lam 1988,
section 2.1), absolute cycles otherwise.

If iterations are initiated every ``s`` cycles, operations scheduled at
times ``t`` and ``t + k*s`` execute simultaneously, one from each of two
different iterations, so resource usage at time ``t`` is accounted at row
``t mod s``.  The steady state is resource-feasible iff no row of the
modulo table exceeds the machine's per-cycle resource limits.

Both tables keep their usage per resource name, one entry for each name
in the machine's :attr:`~repro.machine.MachineDescription.resources`, and
read a reservation pattern's own ``cells`` directly.  A cell naming a
resource the machine lacks raises ``KeyError``.
"""

from __future__ import annotations

from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


class ModuloReservationTable:
    """Tracks modulo resource usage for one initiation interval: per
    resource, the units still free in each of the ``s`` rows."""

    __slots__ = ("machine", "s", "_free")

    def __init__(self, machine: MachineDescription, s: int) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.machine = machine
        self.s = s
        self._free: dict[str, list[int]] = {
            name: [units] * s for name, units in machine.resources.items()
        }

    def usage(self, row: int, resource: str) -> int:
        free = self._free.get(resource)
        if free is None:
            return 0
        return self.machine.resources[resource] - free[row % self.s]

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
        without a second check: a fit has looked up every cell's resource.
        A pattern longer than ``s`` goes by its cells summed per row: two
        cells ``s`` apart share one.
        """
        s = self.s
        cap = earliest + s - 1
        if latest is not None and latest < cap:
            cap = latest
        free = self._free
        cells = reservation.cells
        if reservation.length > s:
            cells = reservation.modulo_cells(s)
        for time in range(earliest, cap + 1):
            for offset, resource, amount in cells:
                if free[resource][(time + offset) % s] < amount:
                    break
            else:
                break
        else:
            # No fit: still refuse a resource the machine lacks.
            for _offset, resource, _amount in cells:
                free[resource]
            return None
        for offset, resource, amount in cells:
            free[resource][(time + offset) % s] -= amount
        return time

    def __repr__(self) -> str:
        units = self.machine.resources
        rows = "; ".join(
            f"{row}:" + ",".join(
                f"{name}x{units[name] - free[row]}"
                for name, free in self._free.items()
                if free[row] < units[name]
            )
            for row in range(self.s)
        )
        return f"MRT(s={self.s}, {rows})"


class ResourceGrid:
    """Plain (non-modulo) resource usage over absolute time.

    Per resource, a dict from absolute time to the units held (times are
    unbounded here, so a dict rather than a flat array).  Any integer
    time has its own entry, so code emitted before time 0 can be recorded
    at negative times.
    """

    __slots__ = ("machine", "_used")

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self._used: dict[str, dict[int, int]] = {
            name: {} for name in machine.resources
        }

    def place_earliest(self, reservation: ReservationTable, time: int) -> int:
        """Place the pattern at the first time from ``time`` on where it
        fits, and return that time."""
        cells = reservation.cells
        used = self._used
        units = self.machine.resources
        while True:
            for offset, resource, amount in cells:
                if used[resource].get(time + offset, 0) + amount > units[resource]:
                    break
            else:
                break
            time += 1
        for offset, resource, amount in cells:
            column = used[resource]
            column[time + offset] = column.get(time + offset, 0) + amount
        return time

    def occupy(self, reservation: ReservationTable, time: int) -> None:
        """Record the pattern at ``time`` without checking it: for code
        already emitted, whose mutually exclusive arms may share a unit
        and so push a count past its limit."""
        used = self._used
        for offset, resource, amount in reservation.cells:
            column = used[resource]
            column[time + offset] = column.get(time + offset, 0) + amount
