"""Modulo scheduling of acyclic graphs (Lam 1988, section 2.2.1).

Identical in shape to list scheduling, with two differences: resource
conflicts are judged against the modulo reservation table, and if a node
cannot be placed in ``s`` consecutive slots it cannot be placed at all, so
the attempt at this initiation interval is abandoned.

The items scheduled here are either single dependence nodes or whole
strongly connected components condensed to one vertex (see
:mod:`repro.core.cyclic`), so the routine is written against a minimal item
protocol: a ``reservation`` and an index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.mrt import ModuloReservationTable
from repro.machine.resources import ReservationTable


@dataclass
class SchedItem:
    """One vertex of the (condensed, acyclic) graph to modulo-schedule."""

    index: int
    reservation: ReservationTable
    span: int = 1  # cycles of internal extent, for height computation


# Plain and slotted, not frozen: one per condensed edge per II attempt, and none outlives the attempt,
# and a frozen record costs several times as much to build.
@dataclass(slots=True)
class ItemEdge:
    src: int
    dst: int
    delay: int
    omega: int


def item_heights(
    items: Sequence[SchedItem], edges: Sequence[ItemEdge], s: int
) -> dict[int, int]:
    """Longest-path heights with edge weight ``delay - s * omega``."""
    order = _topological_order(items, edges)
    succs: dict[int, list[ItemEdge]] = {}
    for edge in edges:
        succs.setdefault(edge.src, []).append(edge)
    heights: dict[int, int] = {}
    for item in reversed(order):
        height = item.span
        for edge in succs.get(item.index, ()):
            height = max(height, edge.delay - s * edge.omega + heights[edge.dst])
        heights[item.index] = height
    return heights


def _topological_order(
    items: Sequence[SchedItem], edges: Sequence[ItemEdge]
) -> list[SchedItem]:
    remaining = {item.index: 0 for item in items}
    succs: dict[int, list[int]] = {}
    for edge in edges:
        remaining[edge.dst] += 1
        succs.setdefault(edge.src, []).append(edge.dst)
    by_index = {item.index: item for item in items}
    stack = sorted(
        (index for index, count in remaining.items() if count == 0),
        reverse=True,
    )
    order: list[SchedItem] = []
    while stack:
        index = stack.pop()
        order.append(by_index[index])
        for dst in succs.get(index, ()):
            remaining[dst] -= 1
            if remaining[dst] == 0:
                stack.append(dst)
    if len(order) != len(items):
        raise ValueError("condensed graph is not acyclic")
    return order


def modulo_schedule_dag(
    items: Sequence[SchedItem],
    edges: Sequence[ItemEdge],
    mrt: ModuloReservationTable,
) -> Optional[dict[int, int]]:
    """Modulo list scheduling of an acyclic item graph.

    Returns issue times per item index, or ``None`` when some item cannot
    be placed at this initiation interval.  ``mrt`` may be pre-seeded (the
    loop-back branch reservation) and is mutated with the placements.
    """
    s = mrt.s
    heights = item_heights(items, edges, s)
    preds: dict[int, list[ItemEdge]] = {}
    succs: dict[int, list[ItemEdge]] = {}
    remaining = {item.index: 0 for item in items}
    for edge in edges:
        preds.setdefault(edge.dst, []).append(edge)
        succs.setdefault(edge.src, []).append(edge)
        remaining[edge.dst] += 1

    by_index = {item.index: item for item in items}
    ready = [index for index, count in remaining.items() if count == 0]
    times: dict[int, int] = {}

    while ready:
        ready.sort(key=lambda index: (-heights[index], index))
        index = ready.pop(0)
        item = by_index[index]
        earliest = 0
        for edge in preds.get(index, ()):
            earliest = max(earliest, times[edge.src] + edge.delay - s * edge.omega)
        time = mrt.earliest_fit(item.reservation, earliest)
        if time is None:
            return None
        mrt.place(item.reservation, time)
        times[index] = time
        for edge in succs.get(index, ()):
            remaining[edge.dst] -= 1
            if remaining[edge.dst] == 0:
                ready.append(edge.dst)

    if len(times) != len(items):
        raise ValueError("condensed graph is not acyclic")
    return times
