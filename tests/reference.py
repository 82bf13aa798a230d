"""Slow, obviously-correct reference implementations the tests hold the
shipped fast paths to.

* :func:`longest_paths` and :func:`numeric_recurrence_bound` — the
  original numeric Floyd-Warshall closure and the binary search over
  concrete intervals built on it, the oracle for
  :class:`repro.deps.paths.SymbolicPaths` (its dense matrices and its
  direct recurrence bound).
* :class:`DictModuloReservationTable` — the name-keyed modulo reservation
  table, the differential oracle for the integer-packed
  :class:`repro.core.mrt.ModuloReservationTable`.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.deps.graph import DepEdge, DepNode
from repro.deps.paths import NEG_INF, CyclicDependenceError
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


def longest_paths(
    nodes: Sequence[DepNode],
    edges: Sequence[DepEdge],
    s: int,
) -> Optional[list[list[float]]]:
    """All-points longest paths with edge weight ``delay - s * omega``.

    Returns the matrix (``NEG_INF`` where unreachable), or ``None`` if the
    graph has a positive cycle at this ``s`` (the initiation interval is
    infeasible for these recurrences).  The diagonal holds the longest
    nonempty cycle length through each node (or ``NEG_INF``).
    """
    n = len(nodes)
    local = {node.index: i for i, node in enumerate(nodes)}
    dist = [[NEG_INF] * n for _ in range(n)]
    for edge in edges:
        src = local.get(edge.src.index)
        dst = local.get(edge.dst.index)
        if src is None or dst is None:
            continue
        weight = edge.delay - s * edge.omega
        if weight > dist[src][dst]:
            dist[src][dst] = weight
    for k in range(n):
        for i in range(n):
            if dist[i][k] == NEG_INF:
                continue
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via > dist[i][j]:
                    dist[i][j] = via
    if any(dist[i][i] > 0 for i in range(n)):
        return None
    return dist


def numeric_recurrence_bound(
    nodes: Sequence[DepNode],
    edges: Sequence[DepEdge],
    upper_bound: int = 1 << 20,
) -> int:
    """The recurrence bound by binary search over concrete intervals, each
    probed with a full :func:`longest_paths` pass.

    Feasibility is monotone in ``s`` (cycle weights ``d(c) - s*p(c)`` only
    decrease as ``s`` grows), so the search is exact.
    """
    if longest_paths(nodes, edges, upper_bound) is None:
        raise CyclicDependenceError("zero-omega cycle with positive delay")
    lo, hi = 0, upper_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if longest_paths(nodes, edges, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


class DictModuloReservationTable:
    """The name-keyed modulo reservation table: one ``{resource: usage}``
    dict per row, checked against :meth:`MachineDescription.units`."""

    def __init__(self, machine: MachineDescription, s: int) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.machine = machine
        self.s = s
        self._rows: list[dict[str, int]] = [dict() for _ in range(s)]

    def usage(self, row: int, resource: str) -> int:
        return self._rows[row % self.s].get(resource, 0)

    def fits(self, reservation: ReservationTable, time: int) -> bool:
        for offset, resource, amount in reservation:
            row = (time + offset) % self.s
            used = self._rows[row].get(resource, 0)
            if used + amount > self.machine.units(resource):
                return False
        return True

    def place(self, reservation: ReservationTable, time: int) -> None:
        if not self.fits(reservation, time):
            raise ValueError(f"resource conflict placing pattern at time {time}")
        for offset, resource, amount in reservation:
            row = (time + offset) % self.s
            self._rows[row][resource] = self._rows[row].get(resource, 0) + amount

    def remove(self, reservation: ReservationTable, time: int) -> None:
        """All-or-nothing: validate every (row, resource) total first."""
        needed: dict[tuple[int, str], int] = {}
        for offset, resource, amount in reservation:
            key = ((time + offset) % self.s, resource)
            needed[key] = needed.get(key, 0) + amount
        for (row, resource), amount in needed.items():
            if self._rows[row].get(resource, 0) < amount:
                raise ValueError("removing a pattern that was never placed")
        for (row, resource), amount in needed.items():
            self._rows[row][resource] -= amount

    def earliest_fit(self, reservation: ReservationTable, earliest: int,
                     latest: int | None = None) -> int | None:
        cap = earliest + self.s - 1
        if latest is not None:
            cap = min(cap, latest)
        for time in range(earliest, cap + 1):
            if self.fits(reservation, time):
                return time
        return None
