"""List scheduling (Fisher 1979), plain and modulo (Lam 1988, section 2.2.1).

This is the workhorse the paper builds on: items are scheduled in a
topological ordering, highest-first by *height* (longest delay path to any
sink), each placed in the earliest slot that satisfies the precedence
constraints and the resource table.  Modulo scheduling an acyclic graph is
the same loop over a modulo reservation table, which refuses an item that
fits in none of ``s`` consecutive slots; the plain resource grid over
absolute time never refuses.  Both tables live in :mod:`repro.core.mrt`.

Plain, it is used for: branch arms during hierarchical reduction,
unpipelined loops, scalar code between loops, and the "locally compacted
code" baseline of Figure 4-2.  Modulo, it places the condensed components
of each initiation-interval attempt.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import attrgetter
from typing import Optional, Sequence

from repro.core.mrt import ModuloReservationTable, ResourceGrid
from repro.core.schedule import BlockSchedule
from repro.deps.graph import DepGraph
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


def list_schedule(
    reservations: Sequence[ReservationTable],
    spans: Sequence[int],
    succs: Sequence[Sequence[tuple[int, int]]],
    table: ResourceGrid | ModuloReservationTable,
) -> Optional[list[int]]:
    """List-schedule items ``0..n-1`` into ``table``; their issue times, or
    ``None`` when the table refuses one.

    Positions are a topological order: ``succs[i]`` holds ``(j, weight)``
    with ``j > i``, each requiring ``time[j] >= time[i] + weight``, and a
    backward edge raises :class:`ValueError`.  An item's height is its span
    or, if larger, the longest weighted path below it, so one reverse sweep
    computes them all.  Ready items leave a heap highest first, ties to the
    smaller position.  ``table.place_earliest(reservation, time)`` places
    an item at the first fitting time from ``time`` on and returns it, or
    returns ``None`` to refuse it; ``table`` may be pre-seeded and is
    mutated.
    """
    n = len(reservations)
    heights = [0] * n
    remaining = [0] * n
    for i in range(n - 1, -1, -1):
        height = spans[i]
        for j, weight in succs[i]:
            if j <= i:
                raise ValueError(
                    f"edge {i} -> {j} does not follow the topological order"
                )
            remaining[j] += 1
            if weight + heights[j] > height:
                height = weight + heights[j]
        heights[i] = height

    ready = [(-heights[i], i) for i in range(n) if not remaining[i]]
    heapify(ready)
    earliest = [0] * n
    times = [0] * n
    place = table.place_earliest
    while ready:
        i = heappop(ready)[1]
        time = place(reservations[i], earliest[i])
        if time is None:
            return None
        times[i] = time
        for j, weight in succs[i]:
            if time + weight > earliest[j]:
                earliest[j] = time + weight
            remaining[j] -= 1
            if not remaining[j]:
                heappush(ready, (-heights[j], j))
    return times


def list_schedule_block(
    graph: DepGraph,
    machine: MachineDescription,
) -> BlockSchedule:
    """Schedule the zero-omega subgraph of ``graph`` as one basic block.

    Zero-omega edges always increase the node index, so index order is the
    topological order :func:`list_schedule` reads.  Cross-iteration edges
    are ignored: a block schedule is executed to completion before its
    successor begins, which satisfies them by construction.
    """
    nodes = sorted(graph.nodes, key=attrgetter("index"))
    position = {node.index: p for p, node in enumerate(nodes)}
    succs: list[list[tuple[int, int]]] = [[] for _ in nodes]
    for edge in graph.edges:
        if not edge.omega:
            succs[position[edge.src.index]].append(
                (position[edge.dst.index], edge.delay)
            )
    times = list_schedule(
        [node.reservation for node in nodes],
        [node.length for node in nodes],
        succs,
        ResourceGrid(machine),
    )
    assert times is not None  # the plain grid never refuses an item
    return BlockSchedule(
        graph, machine, {node.index: time for node, time in zip(nodes, times)}
    )
