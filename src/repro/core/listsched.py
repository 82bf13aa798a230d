"""Basic-block list scheduling (Fisher 1979).

This is the workhorse the paper builds on: nodes are scheduled in a
topological ordering, highest-first by *height* (longest delay path to any
sink), each placed in the earliest slot that satisfies the precedence
constraints and the (non-modulo) resource limits.

It is used for: branch arms during hierarchical reduction, unpipelined
loops, scalar code between loops, and the "locally compacted code" baseline
of Figure 4-2.
"""

from __future__ import annotations

from repro.core.schedule import BlockSchedule
from repro.deps.graph import DepGraph
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


class _ResourceGrid:
    """Plain (non-modulo) resource usage over absolute time.

    Usage is keyed by the interned integer ``time * nres + rid`` (times are
    unbounded here, so a dict rather than a flat array — but the keys are
    small ints and the reservation cells arrive pre-packed, with per-cycle
    limits baked in)."""

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self._nres = len(machine.resource_names)
        self._used: dict[int, int] = {}

    def place_earliest(self, reservation: ReservationTable, time: int) -> int:
        """Place the pattern at the first time from ``time`` on where it
        fits, and return that time.  The packed cells are read once, from
        the table's ``packing`` slot when it holds this machine's."""
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


def block_heights(graph: DepGraph) -> dict[int, int]:
    """Height of each node: its span plus the longest zero-omega delay path
    below it.  Zero-omega edges always increase the source index, so a
    reverse index sweep is a reverse topological sweep."""
    heights: dict[int, int] = {}
    for node in sorted(graph.nodes, key=lambda n: n.index, reverse=True):
        height = node.length
        for edge in graph.succs(node):
            if edge.omega != 0:
                continue
            height = max(height, edge.delay + heights[edge.dst.index])
        heights[node.index] = height
    return heights


def list_schedule_block(
    graph: DepGraph,
    machine: MachineDescription,
) -> BlockSchedule:
    """Schedule the zero-omega subgraph of ``graph`` as one basic block.

    Cross-iteration edges are ignored: a block schedule is executed to
    completion before its successor begins, which satisfies them by
    construction.
    """
    heights = block_heights(graph)
    remaining_preds: dict[int, int] = {node.index: 0 for node in graph.nodes}
    for edge in graph.edges:
        if edge.omega == 0:
            remaining_preds[edge.dst.index] += 1

    by_index = {node.index: node for node in graph.nodes}
    ready = [index for index, count in remaining_preds.items() if count == 0]
    earliest: dict[int, int] = {node.index: 0 for node in graph.nodes}
    times: dict[int, int] = {}
    grid = _ResourceGrid(machine)

    while ready:
        # Highest node first; ties broken by source order for determinism.
        ready.sort(key=lambda index: (-heights[index], index))
        index = ready.pop(0)
        node = by_index[index]
        time = grid.place_earliest(node.reservation, max(0, earliest[index]))
        times[index] = time
        for edge in graph.succs(node):
            if edge.omega != 0:
                continue
            dst = edge.dst.index
            earliest[dst] = max(earliest[dst], time + edge.delay)
            remaining_preds[dst] -= 1
            if remaining_preds[dst] == 0:
                ready.append(dst)

    if len(times) != len(graph.nodes):
        raise ValueError("zero-omega subgraph is not acyclic")
    return BlockSchedule(graph, machine, times)
