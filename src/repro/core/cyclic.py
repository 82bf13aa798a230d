"""Scheduling strongly connected components (Lam 1988, section 2.2.2).

Nodes of one component are scheduled in a topological ordering of the
*intra-iteration* (zero iteration difference) edges.  Because the component
is strongly connected, fixing any node's time bounds every other node's time
from below *and* above; the legal window is the node's *precedence
constrained range*, derived from the precomputed all-points longest paths
with the symbolic initiation interval substituted by the actual value.  A
node is placed at the earliest resource-feasible slot inside its range; if
the range (capped at ``s`` slots) has no feasible slot the attempt fails and
the driver retries with a larger initiation interval.

Both desirable heuristic properties from the paper hold by construction:
partial schedules always satisfy all precedence constraints, and the ranges
widen as the initiation interval grows.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.mrt import ModuloReservationTable
from repro.obs import trace as obs
from repro.deps.graph import DepEdge, DepNode
from repro.deps.paths import NEG_INF, SymbolicPaths
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


@dataclass
class Cluster:
    """A scheduled component, condensed to a single schedulable vertex.

    ``offsets`` give each member's issue time relative to the cluster
    start; ``reservation`` is the aggregate usage of all members.
    """

    members: list[DepNode]
    offsets: dict[int, int]
    reservation: ReservationTable

    @property
    def span(self) -> int:
        return max(
            self.offsets[node.index] + node.length for node in self.members
        )

    def offset_of(self, node: DepNode) -> int:
        return self.offsets[node.index]


def _zero_omega_order(
    component: Sequence[DepNode], edges: Sequence[DepEdge]
) -> list[DepNode]:
    """Topological order of the intra-iteration edges within the component.

    Graphs built by :mod:`repro.deps.build` happen to orient zero-omega
    edges by increasing source index, but nothing in the scheduler's
    contract guarantees that (reduced constructs and programmatically built
    graphs are free to violate it), so the order is computed from the edges
    themselves: a deterministic Kahn sort breaking ties by smallest index.
    A zero-omega cycle admits no order (and no initiation interval) and
    raises.
    """
    members = {node.index for node in component}
    indegree = {index: 0 for index in members}
    succs: dict[int, list[int]] = {index: [] for index in members}
    for edge in edges:
        if edge.omega != 0:
            continue
        src, dst = edge.src.index, edge.dst.index
        if src in members and dst in members:
            succs[src].append(dst)
            indegree[dst] += 1
    by_index = {node.index: node for node in component}
    ready = sorted(index for index, count in indegree.items() if count == 0)
    heapq.heapify(ready)
    order: list[DepNode] = []
    while ready:
        index = heapq.heappop(ready)
        order.append(by_index[index])
        for dst in succs[index]:
            indegree[dst] -= 1
            if indegree[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) != len(component):
        raise ValueError(
            "zero-iteration-difference dependence cycle in component;"
            " no initiation interval can satisfy it"
        )
    return order


def schedule_component(
    component: Sequence[DepNode],
    paths: SymbolicPaths,
    s: int,
    machine: MachineDescription,
    order: Optional[Sequence[DepNode]] = None,
) -> Optional[Cluster]:
    """Schedule one strongly connected component for initiation interval
    ``s``, against a private modulo reservation table.

    ``order`` is the component's zero-omega topological order; it does not
    depend on ``s``, so the driver computes it once per graph and passes it
    to every attempt (omitted, it is derived on the spot).

    Returns ``None`` when no placement exists within some node's
    precedence-constrained range.
    """
    mrt = ModuloReservationTable(machine, s)
    if order is None:
        order = _zero_omega_order(component, paths.edges)
    times: dict[int, int] = {}
    # Placed nodes as (local index, issue time): the range computation below
    # runs O(n^2) times per attempt and should touch no dicts.
    scheduled: list[tuple[int, int]] = []
    # One dense materialization of the symbolic closure per (component, s);
    # the O(n^2) range computations below are then flat array lookups.
    dist = paths.dense(s)
    local = paths.local
    n = paths.n

    for node in order:
        reservation = node.reservation
        node_local = local[node.index]
        if not scheduled:
            time = mrt.place_earliest(reservation, 0)
            if time is None:
                obs.count("scc_placement_failures")
                return None
        else:
            low: float = NEG_INF
            high: float = math.inf
            node_base = node_local * n
            for other_local, other_time in scheduled:
                forward = dist[other_local * n + node_local]
                if forward != NEG_INF:
                    bound = other_time + forward
                    if bound > low:
                        low = bound
                backward = dist[node_base + other_local]
                if backward != NEG_INF:
                    bound = other_time - backward
                    if bound < high:
                        high = bound
            if low == NEG_INF:
                low = 0
            if low > high:
                obs.count("scc_empty_ranges")
                return None
            latest = None if high == math.inf else int(high)
            time = mrt.place_earliest(reservation, int(low), latest)
            if time is None:
                obs.count("scc_placement_failures")
                return None
        times[node.index] = time
        scheduled.append((node_local, time))

    obs.count("scc_schedules")
    base = min(times.values())
    offsets = {index: time - base for index, time in times.items()}
    # Aggregate the members' usage in one cells dict instead of a chain of
    # immutable merged(shifted(...)) tables (which is quadratic in cells).
    cells: dict[tuple[int, str], int] = {}
    for node in component:
        shift = offsets[node.index]
        for offset, resource, amount in node.reservation.cells:
            key = (offset + shift, resource)
            cells[key] = cells.get(key, 0) + amount
    reservation = ReservationTable.from_cells(cells)
    return Cluster(list(component), offsets, reservation)
