"""Internals of the modulo scheduler: DAG items, SCC clusters, ranges."""

import pytest

from repro.core.acyclic import (
    ItemEdge,
    SchedItem,
    item_heights,
    modulo_schedule_dag,
)
from repro.core.cyclic import Cluster, _zero_omega_order, schedule_component
from repro.core.mrt import ModuloReservationTable
from repro.deps.graph import DepGraph, DepNode
from repro.deps.paths import SymbolicPaths
from repro.ir import Opcode, Operation
from repro.machine import WARP
from repro.machine.resources import ReservationTable


def _items(resources):
    return [
        SchedItem(i, ReservationTable.single(r)) for i, r in enumerate(resources)
    ]


class TestModuloDag:
    def test_chain_respects_delays(self):
        items = _items(["alu", "alu"])
        edges = [ItemEdge(0, 1, 5, 0)]
        mrt = ModuloReservationTable(WARP, 3)
        times = modulo_schedule_dag(items, edges, mrt)
        assert times[1] - times[0] >= 5

    def test_omega_relaxes_with_interval(self):
        items = _items(["alu", "fadd"])
        edges = [ItemEdge(0, 1, 9, 1)]
        mrt = ModuloReservationTable(WARP, 4)
        times = modulo_schedule_dag(items, edges, mrt)
        assert times[1] - times[0] >= 9 - 4

    def test_resource_saturation_fails(self):
        # Three ALU items at interval 2: only two modulo rows exist.
        items = _items(["alu", "alu", "alu"])
        mrt = ModuloReservationTable(WARP, 2)
        assert modulo_schedule_dag(items, [], mrt) is None

    def test_resource_saturation_fits_at_larger_interval(self):
        items = _items(["alu", "alu", "alu"])
        mrt = ModuloReservationTable(WARP, 3)
        times = modulo_schedule_dag(items, [], mrt)
        assert sorted(t % 3 for t in times.values()) == [0, 1, 2]

    def test_cyclic_item_graph_rejected(self):
        items = _items(["alu", "fadd"])
        edges = [ItemEdge(0, 1, 1, 0), ItemEdge(1, 0, 1, 0)]
        mrt = ModuloReservationTable(WARP, 4)
        with pytest.raises(ValueError, match="acyclic"):
            modulo_schedule_dag(items, edges, mrt)

    def test_heights_drive_priority(self):
        items = _items(["alu", "alu", "fadd"])
        edges = [ItemEdge(1, 2, 10, 0)]
        heights = item_heights(items, edges, s=2)
        assert heights[1] > heights[0]

    def test_preseeded_mrt_respected(self):
        items = _items(["seq"])
        mrt = ModuloReservationTable(WARP, 2)
        mrt.place(ReservationTable.single("seq"), 1)  # branch slot
        times = modulo_schedule_dag(items, [], mrt)
        assert times[0] % 2 == 0


def _scc(edge_specs):
    """Build a strongly connected component from (src, dst, d, p) specs."""
    indices = {i for spec in edge_specs for i in spec[:2]}
    nodes = {
        i: DepNode(i, ReservationTable.single("alu"), Operation(Opcode.NOP))
        for i in sorted(indices)
    }
    graph = DepGraph(nodes.values())
    for src, dst, delay, omega in edge_specs:
        graph.add_edge(nodes[src], nodes[dst], delay, omega)
    return list(nodes.values()), graph.edges


class TestComponentScheduling:
    def test_simple_recurrence_scheduled_within_bound(self):
        nodes, edges = _scc([(0, 1, 3, 0), (1, 0, 1, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, paths.s_min, WARP)
        assert cluster is not None
        assert cluster.offset_of(nodes[1]) - cluster.offset_of(nodes[0]) >= 3

    def test_offsets_normalised_to_zero(self):
        nodes, edges = _scc([(0, 1, 3, 0), (1, 0, 1, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, 4, WARP)
        assert min(cluster.offsets.values()) == 0

    def test_cluster_reservation_aggregates_members(self):
        nodes, edges = _scc([(0, 1, 3, 0), (1, 0, 1, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, 4, WARP)
        assert cluster.reservation.total_use("alu") == 2
        assert cluster.span >= 4

    def test_infeasible_range_returns_none(self):
        # Cycle needing s >= 6; at s = 6 with a tight backward edge the
        # range may close depending on resources — at s below the
        # recurrence bound the closure itself is invalid, so check the
        # resource-infeasible case instead: two ALU nodes pinned to the
        # same modulo slot at s=1.
        nodes, edges = _scc([(0, 1, 1, 0), (1, 0, 0, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, paths.s_min, WARP)
        # s_min = 1: both nodes would need the single ALU in the same row.
        assert cluster is None

    def test_larger_interval_recovers(self):
        nodes, edges = _scc([(0, 1, 1, 0), (1, 0, 0, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, 2, WARP)
        assert cluster is not None


class TestZeroOmegaOrder:
    """Regressions for the intra-iteration ordering used inside SCCs.

    The old implementation ignored the edges and sorted by node index,
    silently assuming every zero-omega edge increases the index.
    """

    def test_decreasing_index_edge_respected(self):
        # Zero-omega edge 1 -> 0: node 1 must come first even though its
        # index is larger.
        nodes, edges = _scc([(1, 0, 3, 0), (0, 1, 1, 1)])
        order = [node.index for node in _zero_omega_order(nodes, edges)]
        assert order == [1, 0]

    def test_index_breaks_ties_deterministically(self):
        nodes, edges = _scc([(0, 2, 1, 0), (1, 2, 1, 0), (2, 0, 1, 2)])
        order = [node.index for node in _zero_omega_order(nodes, edges)]
        assert order == [0, 1, 2]

    def test_zero_omega_cycle_raises(self):
        nodes, edges = _scc([(0, 1, 1, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
        with pytest.raises(ValueError, match="zero-iteration"):
            _zero_omega_order(nodes, edges)

    def test_edges_outside_component_ignored(self):
        nodes, edges = _scc([(0, 1, 1, 0), (1, 0, 1, 1), (1, 2, 1, 0),
                             (2, 1, 1, 1)])
        order = [n.index for n in _zero_omega_order(nodes[:2], edges)]
        assert order == [0, 1]

    def test_component_schedules_against_decreasing_index_edge(self):
        # End to end: the SCC with the index-decreasing intra-iteration
        # edge still schedules, and the precedence constraint holds.
        nodes, edges = _scc([(1, 0, 3, 0), (0, 1, 1, 1)])
        paths = SymbolicPaths(nodes, edges)
        cluster = schedule_component(nodes, paths, paths.s_min, WARP)
        assert cluster is not None
        assert cluster.offset_of(nodes[0]) - cluster.offset_of(nodes[1]) >= 3
