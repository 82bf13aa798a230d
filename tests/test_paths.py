"""Longest-path machinery: the numeric Floyd-Warshall reference, the
recurrence bound, and the symbolic Pareto closure (including randomized
cross-checks against the reference)."""

import random

import pytest

from repro.deps.graph import DepGraph, DepNode
from repro.deps.paths import NEG_INF, CyclicDependenceError, SymbolicPaths
from repro.ir import Opcode, Operation
from repro.machine.resources import ReservationTable

from reference import longest_paths, numeric_recurrence_bound


def _nodes(count):
    return [
        DepNode(i, ReservationTable.single("alu"), Operation(Opcode.NOP))
        for i in range(count)
    ]


def _bound(nodes, edges):
    return SymbolicPaths(nodes, edges).recurrence_bound


def _at(paths, src, dst, s):
    """Longest path ``src -> dst`` at interval ``s`` from the dense matrix."""
    return paths.dense(s)[paths.local[src.index] * paths.n
                          + paths.local[dst.index]]


class _E:
    """Lightweight stand-in matching the DepEdge attributes paths.py uses."""

    def __init__(self, src, dst, delay, omega):
        self.src, self.dst, self.delay, self.omega = src, dst, delay, omega


class TestLongestPaths:
    def test_simple_chain(self):
        nodes = _nodes(3)
        edges = [_E(nodes[0], nodes[1], 4, 0), _E(nodes[1], nodes[2], 7, 0)]
        dist = longest_paths(nodes, edges, s=1)
        assert dist[0][2] == 11
        assert dist[2][0] == NEG_INF

    def test_takes_longest_not_shortest(self):
        nodes = _nodes(3)
        edges = [
            _E(nodes[0], nodes[1], 1, 0),
            _E(nodes[1], nodes[2], 1, 0),
            _E(nodes[0], nodes[2], 10, 0),
        ]
        dist = longest_paths(nodes, edges, s=1)
        assert dist[0][2] == 10

    def test_omega_scales_with_s(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 10, 2)]
        assert longest_paths(nodes, edges, 3)[0][1] == 4
        assert longest_paths(nodes, edges, 5)[0][1] == 0

    def test_positive_cycle_detected(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 5, 0), _E(nodes[1], nodes[0], 5, 1)]
        assert longest_paths(nodes, edges, 9) is None   # 10 - 9 > 0
        assert longest_paths(nodes, edges, 10) is not None

    def test_diagonal_holds_cycle_length(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 3, 0), _E(nodes[1], nodes[0], 3, 1)]
        dist = longest_paths(nodes, edges, 10)
        assert dist[0][0] == -4  # 6 - 10


class TestRecurrenceBound:
    def test_single_cycle(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 7, 0), _E(nodes[1], nodes[0], 1, 1)]
        assert _bound(nodes, edges) == 8

    def test_ratio_rounds_up(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 7, 0), _E(nodes[1], nodes[0], 0, 2)]
        assert _bound(nodes, edges) == 4

    def test_max_over_cycles(self):
        nodes = _nodes(3)
        edges = [
            _E(nodes[0], nodes[1], 3, 0), _E(nodes[1], nodes[0], 0, 1),
            _E(nodes[1], nodes[2], 9, 0), _E(nodes[2], nodes[1], 0, 1),
        ]
        assert _bound(nodes, edges) == 9

    def test_self_edge(self):
        nodes = _nodes(1)
        edges = [_E(nodes[0], nodes[0], 5, 1)]
        assert _bound(nodes, edges) == 5

    def test_acyclic_is_zero(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 5, 0)]
        assert _bound(nodes, edges) == 0

    def test_illegal_zero_omega_cycle_raises(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 1, 0), _E(nodes[1], nodes[0], 1, 0)]
        with pytest.raises(CyclicDependenceError):
            _bound(nodes, edges)


class TestSymbolicPaths:
    def test_matches_concrete_on_simple_recurrence(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 7, 0), _E(nodes[1], nodes[0], 1, 1)]
        symbolic = SymbolicPaths(nodes, edges)
        assert symbolic.s_min == 8
        for s in range(symbolic.s_min, symbolic.s_min + 6):
            concrete = longest_paths(nodes, edges, s)
            for i in range(2):
                for j in range(2):
                    assert _at(symbolic, nodes[i], nodes[j], s) == \
                        concrete[i][j]

    def test_below_validity_bound_rejected(self):
        nodes = _nodes(2)
        edges = [_E(nodes[0], nodes[1], 7, 0), _E(nodes[1], nodes[0], 1, 1)]
        symbolic = SymbolicPaths(nodes, edges)
        assert symbolic.s_min == 8
        with pytest.raises(ValueError):
            symbolic.dense(7)

    def test_frontier_keeps_incomparable_pairs(self):
        nodes = _nodes(2)
        # Two paths: (d=10, p=1) wins for small s; (d=2, p=0) wins for
        # large s.  Both must survive pruning.
        edges = [
            _E(nodes[0], nodes[1], 10, 1),
            _E(nodes[0], nodes[1], 2, 0),
        ]
        symbolic = SymbolicPaths(nodes, edges)
        assert symbolic.s_min == 1
        assert len(symbolic.frontier(nodes[0], nodes[1])) == 2
        assert _at(symbolic, nodes[0], nodes[1], 1) == 9
        assert _at(symbolic, nodes[0], nodes[1], 20) == 2

    def test_dominated_pair_pruned(self):
        nodes = _nodes(2)
        edges = [
            _E(nodes[0], nodes[1], 10, 1),
            _E(nodes[0], nodes[1], 2, 1),  # strictly worse
        ]
        symbolic = SymbolicPaths(nodes, edges)
        assert symbolic.frontier(nodes[0], nodes[1]) == ((10, 1),)

    def test_randomised_cross_check_against_concrete(self):
        rng = random.Random(7)
        for trial in range(30):
            count = rng.randrange(2, 7)
            nodes = _nodes(count)
            edges = []
            # A ring guarantees strong connectivity (like a real SCC).
            for i in range(count):
                edges.append(
                    _E(nodes[i], nodes[(i + 1) % count],
                       rng.randrange(0, 8), 1 if (i + 1) % count == 0 else 0)
                )
            for _ in range(rng.randrange(0, 2 * count)):
                a, b = rng.randrange(count), rng.randrange(count)
                edges.append(
                    _E(nodes[a], nodes[b], rng.randrange(-3, 9),
                       rng.randrange(0, 3))
                )
            try:
                symbolic = SymbolicPaths(nodes, edges)
            except CyclicDependenceError:
                continue
            s_min = symbolic.s_min
            for s in (s_min, s_min + 1, s_min + 3, s_min + 10):
                concrete = longest_paths(nodes, edges, s)
                assert concrete is not None
                for i in range(count):
                    for j in range(count):
                        assert _at(symbolic, nodes[i], nodes[j], s) == \
                            concrete[i][j], (trial, s, i, j)


class TestFrontierInvariant:
    """Frontiers are kept sorted by omega; survivors are additionally
    strictly increasing in delay and in value at ``s_min`` (anything else
    would be dominated)."""

    def _assert_sorted(self, paths):
        for src in paths.nodes:
            for dst in paths.nodes:
                cell = paths.frontier(src, dst)
                omegas = [p for _, p in cell]
                delays = [d for d, _ in cell]
                values = [d - paths.s_min * p for d, p in cell]
                assert omegas == sorted(omegas) and len(set(omegas)) == len(omegas)
                assert delays == sorted(delays) and len(set(delays)) == len(delays)
                assert values == sorted(values) and len(set(values)) == len(values)

    def test_hand_built_component(self):
        nodes = _nodes(3)
        edges = [
            _E(nodes[0], nodes[1], 2, 0),
            _E(nodes[1], nodes[2], 3, 0),
            _E(nodes[2], nodes[0], 1, 2),
            _E(nodes[1], nodes[0], 1, 1),
        ]
        self._assert_sorted(SymbolicPaths(nodes, edges))

    def test_randomised_components(self):
        rng = random.Random(11)
        for _ in range(40):
            count = rng.randrange(2, 7)
            nodes = _nodes(count)
            edges = [
                _E(nodes[i], nodes[(i + 1) % count],
                   rng.randrange(0, 8), 1 if (i + 1) % count == 0 else 0)
                for i in range(count)
            ]
            for _ in range(rng.randrange(0, 2 * count)):
                a, b = rng.randrange(count), rng.randrange(count)
                edges.append(
                    _E(nodes[a], nodes[b], rng.randrange(-3, 9),
                       rng.randrange(0, 3))
                )
            try:
                paths = SymbolicPaths(nodes, edges)
            except CyclicDependenceError:
                continue
            self._assert_sorted(paths)


class TestDense:
    def _paths(self):
        nodes = _nodes(2)
        edges = [
            _E(nodes[0], nodes[1], 3, 0),
            _E(nodes[1], nodes[0], 2, 1),
        ]
        return SymbolicPaths(nodes, edges)

    def test_each_call_materializes_a_fresh_matrix(self):
        paths = self._paths()
        first = paths.dense(paths.s_min)
        again = paths.dense(paths.s_min)
        assert again == first and again is not first
        # Node 1 -> node 0 is the loop-carried edge: 2 - s.
        assert paths.dense(paths.s_min + 1)[1 * paths.n + 0] == \
            first[1 * paths.n + 0] - 1

    def test_below_s_min_rejected(self):
        paths = self._paths()
        with pytest.raises(ValueError):
            paths.dense(paths.s_min - 1)


class TestFusedRecurrenceEquivalence:
    """The closure's fused recurrence bound must agree with the numeric
    binary search it replaced, per component and through the scheduler's
    prepared MII."""

    def test_closure_bench_corpus_matches_numeric(self):
        # The ``closure`` benchmark's own corpus at its default seed and
        # full size: every component's bound equals the reference's.
        from repro.perf.bench import _scc_corpus

        corpus = _scc_corpus(2024, 400)
        assert len(corpus) > 400
        for component, internal in corpus:
            assert SymbolicPaths(component, internal).recurrence_bound == \
                numeric_recurrence_bound(component, internal)

    def test_property_fused_equals_numeric(self):
        from hypothesis import HealthCheck, given, settings
        from hypothesis import strategies as st

        from repro.audit.generate import GraphConfig, random_dep_graph
        from repro.core.pipeliner import ModuloScheduler
        from repro.deps.scc import strongly_connected_components
        from repro.machine import WARP

        config = GraphConfig(min_nodes=4, max_nodes=10, scc_density=0.45)

        @settings(
            max_examples=40,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
        )
        @given(seed=st.integers(min_value=0, max_value=100_000))
        def check(seed):
            graph = random_dep_graph(seed, WARP, config)
            expected = 0
            for component in strongly_connected_components(graph):
                members = {node.index for node in component}
                internal = [
                    edge for edge in graph.edges
                    if edge.src.index in members and edge.dst.index in members
                ]
                if not internal:
                    continue
                fused = SymbolicPaths(component, internal).recurrence_bound
                assert fused == numeric_recurrence_bound(component, internal)
                expected = max(expected, fused)
            prepared = ModuloScheduler(WARP).prepare(graph)
            assert prepared.mii.recurrence == expected

        check()
