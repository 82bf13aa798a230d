"""Internals of the modulo scheduler: list scheduling, SCC clusters, ranges."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.cyclic import _zero_omega_order, schedule_component
from repro.core.listsched import list_schedule
from repro.core.mrt import ModuloReservationTable, ResourceGrid
from repro.deps.graph import DepGraph, DepNode
from repro.deps.paths import SymbolicPaths
from repro.ir import Opcode, Operation
from repro.machine import WARP
from repro.machine.resources import ReservationTable

from reference import (
    DictModuloReservationTable,
    DictResourceGrid,
    reference_list_schedule,
)


def _items(resources):
    """Reservations and unit spans for one single-resource item each."""
    return [ReservationTable.single(r) for r in resources], [1] * len(resources)


def _succs(n, edges):
    """Successor lists from ``(src, dst, weight)`` triples."""
    succs = [[] for _ in range(n)]
    for src, dst, weight in edges:
        succs[src].append((dst, weight))
    return succs


class TestModuloDag:
    """Modulo list scheduling of condensed item graphs."""

    def test_chain_respects_delays(self):
        reservations, spans = _items(["alu", "alu"])
        mrt = ModuloReservationTable(WARP, 3)
        times = list_schedule(reservations, spans, _succs(2, [(0, 1, 5)]), mrt)
        assert times[1] - times[0] >= 5

    def test_omega_relaxes_with_interval(self):
        # Delay 9 at omega 1 and s = 4 weighs 9 - 4.
        reservations, spans = _items(["alu", "fadd"])
        mrt = ModuloReservationTable(WARP, 4)
        times = list_schedule(
            reservations, spans, _succs(2, [(0, 1, 9 - 4)]), mrt
        )
        assert times[1] - times[0] >= 9 - 4

    def test_resource_saturation_fails(self):
        # Three ALU items at interval 2: only two modulo rows exist.
        reservations, spans = _items(["alu", "alu", "alu"])
        mrt = ModuloReservationTable(WARP, 2)
        assert list_schedule(reservations, spans, _succs(3, []), mrt) is None

    def test_resource_saturation_fits_at_larger_interval(self):
        reservations, spans = _items(["alu", "alu", "alu"])
        mrt = ModuloReservationTable(WARP, 3)
        times = list_schedule(reservations, spans, _succs(3, []), mrt)
        assert sorted(t % 3 for t in times) == [0, 1, 2]

    def test_cyclic_item_graph_rejected(self):
        # A cycle needs a backward edge, and a backward edge raises.
        reservations, spans = _items(["alu", "fadd"])
        mrt = ModuloReservationTable(WARP, 4)
        with pytest.raises(ValueError, match="topological order"):
            list_schedule(
                reservations, spans, _succs(2, [(0, 1, 1), (1, 0, 1)]), mrt
            )
        with pytest.raises(ValueError, match="topological order"):
            list_schedule(reservations, spans, _succs(2, [(1, 0, 1)]), mrt)

    def test_heights_drive_priority(self):
        # Item 1 heads a long path, so it takes the one ALU row first.
        reservations, spans = _items(["alu", "alu", "fadd"])
        mrt = ModuloReservationTable(WARP, 2)
        times = list_schedule(
            reservations, spans, _succs(3, [(1, 2, 10)]), mrt
        )
        assert times[1] < times[0]

    def test_preseeded_mrt_respected(self):
        reservations, spans = _items(["seq"])
        mrt = ModuloReservationTable(WARP, 2)
        mrt.place(ReservationTable.single("seq"), 1)  # branch slot
        times = list_schedule(reservations, spans, _succs(1, []), mrt)
        assert times[0] % 2 == 0


_OP_RESERVATIONS = sorted(
    {cls.reservation for cls in WARP.op_classes.values()}, key=repr
)


@st.composite
def _dag(draw):
    """Items in topological order: WARP op reservations, some merged with a
    shifted second one as a condensed component's would be, multi-cycle
    spans, and forward edges whose weights may be negative."""
    n = draw(st.integers(min_value=0, max_value=9))
    reservations, spans = [], []
    for _ in range(n):
        reservation = draw(st.sampled_from(_OP_RESERVATIONS))
        if draw(st.booleans()):
            other = draw(st.sampled_from(_OP_RESERVATIONS))
            shift = draw(st.integers(min_value=1, max_value=3))
            reservation = reservation.merged(other.shifted(shift))
        reservations.append(reservation)
        spans.append(draw(st.integers(min_value=1, max_value=5)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [
        (i, j, draw(st.integers(min_value=-4, max_value=8)))
        for i, j in chosen
    ]
    return reservations, spans, _succs(n, edges)


@settings(max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(
    dag=_dag(),
    s=st.integers(min_value=0, max_value=6),
    emitted=st.lists(st.tuples(
        st.sampled_from(_OP_RESERVATIONS),
        st.integers(min_value=-2, max_value=6),
    ), max_size=6),
)
def test_list_schedule_matches_reference(dag, s, emitted):
    """The heap scheduler and the sort-based oracle return the same times,
    or both refuse: under the plain grid (``s`` = 0), seeded unchecked
    with patterns already emitted (which may oversubscribe a unit), and
    under modulo tables with the loop-back branch pre-placed in the last
    row."""
    reservations, spans, succs = dag
    if s == 0:
        table, reference = ResourceGrid(WARP), DictResourceGrid(WARP)
        for reservation, time in emitted:
            table.occupy(reservation, time)
            reference.occupy(reservation, time)
    else:
        table = ModuloReservationTable(WARP, s)
        reference = DictModuloReservationTable(WARP, s)
        table.place(WARP.branch_reservation, s - 1)
        reference.place(WARP.branch_reservation, s - 1)
    times = list_schedule(reservations, spans, succs, table)
    assert times == reference_list_schedule(
        reservations, spans, succs, reference
    )
    if times is not None:
        for i, edges in enumerate(succs):
            for j, weight in edges:
                assert times[j] >= times[i] + weight
        if s:
            for row in range(s):
                for resource in WARP.resources:
                    assert table.usage(row, resource) == reference.usage(
                        row, resource
                    )


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
