"""The exact SAT scheduling backend and the optimality oracle.

Hand-built dependence graphs pin the CNF encoder's semantics (precedence,
modulo resources, the reserved branch row, decode normalization); seeded
random graphs cross-check the whole backend against the heuristic and the
invariant oracles; pinned fuzz seeds anchor each optimality
classification to a real unit from the committed corpus.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.exact.backend
from repro.audit.generate import GraphConfig, random_dep_graph
from repro.audit.optimality import audit_optimality
from repro.audit.oracle import audit_result
from repro.core.pipeliner import (
    ModuloScheduler,
    PipelinerPolicy,
    SchedulerBackend,
    create_scheduler,
)
from repro.core.compile import CompilerPolicy
from repro.core.schedule import SchedulingFailure
from repro.deps.graph import DepGraph, DepNode
from repro.exact import (
    SAT,
    UNSAT,
    CdclSolver,
    ExactScheduler,
    ModuloCnf,
    encode,
)
from repro.ir import Opcode, Operation
from repro.machine import WARP
from repro.obs import trace as obs

from conftest import cjump_on
from reference import schedule_at

#: The committed corpus config (seed 2024 batch, bench_scheduler shape).
CORPUS_CONFIG = GraphConfig(min_nodes=4, max_nodes=10, scc_density=0.35)

#: Smaller graphs for the hypothesis sweeps, to keep solve times in the
#: tens of milliseconds.
SWEEP_CONFIG = GraphConfig(min_nodes=3, max_nodes=8, scc_density=0.3)

_settings = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _graph(*op_classes, edges=()):
    """A hand-built graph: nodes from WARP op classes, explicit edges."""
    graph = DepGraph()
    nodes = [
        graph.add_node(
            DepNode(
                index=index,
                reservation=WARP.op_classes[name].reservation,
                payload=Operation(Opcode.NOP),
                label=f"{name}{index}",
            )
        )
        for index, name in enumerate(op_classes)
    ]
    for src, dst, delay, omega in edges:
        graph.add_edge(nodes[src], nodes[dst], delay, omega)
    return graph


def _encode(graph, machine, s):
    return ModuloCnf(ModuloScheduler(machine).prepare(graph), machine, s)


def _solve(encoding):
    return CdclSolver(encoding.num_vars, encoding.clauses).solve()


class TestModuloCnfEncoder:
    def test_chain_precedence_roundtrip(self):
        # u -(7,0)-> v on one fadd unit: at s=2 both fit, 7 cycles apart.
        graph = _graph("fadd", "fadd", edges=[(0, 1, 7, 0)])
        encoding = _encode(graph, WARP, 2)
        result = _solve(encoding)
        assert result.status == SAT
        times = encoding.decode(result.model)
        assert times[1] - times[0] >= 7

    def test_decode_normalizes_min_time(self):
        graph = _graph("fadd", "fadd", edges=[(0, 1, 7, 0)])
        encoding = _encode(graph, WARP, 3)
        result = _solve(encoding)
        assert result.status == SAT
        times = encoding.decode(result.model)
        assert 0 <= min(times.values()) < 3

    def test_resource_conflict_unsat_at_one(self):
        # Two loads, one memory port: II=1 puts both on modulo row 0.
        graph = _graph("load", "load")
        assert _solve(_encode(graph, WARP, 1)).status == UNSAT
        assert _solve(_encode(graph, WARP, 2)).status == SAT

    def test_modulo_resource_rows_respected(self):
        # Three ALU ops at II=3 must land on three distinct modulo rows.
        graph = _graph("add", "add", "add")
        encoding = _encode(graph, WARP, 3)
        result = _solve(encoding)
        assert result.status == SAT
        times = encoding.decode(result.model)
        assert len({t % 3 for t in times.values()}) == 3

    def test_reserved_branch_row_excludes_sequencer(self):
        # One sequencer op at II=1: the loop-back branch owns row 0, unless
        # the machine's cjump reserves another unit.
        graph = _graph("cbr")
        assert _solve(_encode(graph, WARP, 1)).status == UNSAT
        assert _solve(_encode(graph, cjump_on("br"), 1)).status == SAT

    def test_reserved_branch_row_is_last_slot(self):
        # At II=2 the branch owns row 1; a sequencer op must avoid it.
        graph = _graph("cbr")
        encoding = _encode(graph, WARP, 2)
        result = _solve(encoding)
        assert result.status == SAT
        times = encoding.decode(result.model)
        assert times[0] % 2 != 1

    def test_cross_iteration_edge_relaxes_with_omega(self):
        # v -(7,1)-> u back edge: sigma(u) - sigma(v) >= 7 - s.
        graph = _graph(
            "fadd", "fadd", edges=[(0, 1, 7, 0), (1, 0, 7, 1)]
        )
        encoding = _encode(graph, WARP, 14)
        result = _solve(encoding)
        assert result.status == SAT
        times = encoding.decode(result.model)
        assert times[1] - times[0] >= 7
        assert times[0] - times[1] >= 7 - 14

    def test_windows_cover_each_node(self):
        graph = _graph("fadd", "fadd", "load", edges=[(0, 1, 7, 0)])
        encoding = _encode(graph, WARP, 2)
        result = _solve(encoding)
        times = encoding.decode(result.model)
        for node in graph.nodes:
            lo, hi = encoding.window(node.index)
            assert lo <= times[node.index] <= hi

    def test_var_and_clause_counts_positive(self):
        graph = _graph("fadd", "load", edges=[(0, 1, 7, 0)])
        encoding = _encode(graph, WARP, 2)
        assert encoding.num_vars > 0
        assert len(encoding.clauses) > 0


class TestExactScheduler:
    def test_satisfies_backend_protocol(self):
        exact = ExactScheduler(WARP)
        assert isinstance(exact, SchedulerBackend)
        assert exact.name == "exact"

    def test_create_scheduler_dispatches(self):
        assert isinstance(create_scheduler(WARP), ModuloScheduler)
        assert isinstance(
            create_scheduler(WARP, backend="exact"), ExactScheduler
        )
        with pytest.raises(ValueError, match="unknown scheduler backend"):
            create_scheduler(WARP, backend="ilp")

    def test_accumulator_minimum_is_latency(self):
        graph = _graph("fadd", edges=[(0, 0, 7, 1)])
        outcome = ExactScheduler(WARP).minimum_ii(graph)
        assert outcome.optimal
        assert outcome.ii == 7
        assert outcome.mii.mii == 7

    def test_memory_contention_minimum(self):
        graph = _graph("load", "store")
        outcome = ExactScheduler(WARP).minimum_ii(graph)
        assert outcome.optimal
        assert outcome.ii == 2

    def test_result_passes_invariant_oracles(self):
        graph = _graph(
            "fadd", "fmul", "load", edges=[(2, 0, 4, 0), (0, 1, 7, 0)]
        )
        result = ExactScheduler(WARP).schedule(graph)
        assert audit_result(result) == []

    def test_singleton_clusters_cover_all_nodes(self):
        graph = _graph("fadd", "load")
        result = ExactScheduler(WARP).schedule(graph)
        assert sorted(
            node.index for c in result.clusters for node in c.members
        ) == [0, 1]

    def test_minimum_ii_never_probes_below_the_recurrence_bound(
        self, monkeypatch
    ):
        # Probes start at MII >= RecMII, so no encoding is ever built
        # below the recurrence bound, where the closures are not valid.
        built = []

        class Recording(ModuloCnf):
            def __init__(self, prepared, machine, s):
                built.append((prepared.mii.recurrence, s))
                super().__init__(prepared, machine, s)

        monkeypatch.setattr(repro.exact.backend, "ModuloCnf", Recording)
        graphs = [_graph("fadd", edges=[(0, 0, 7, 1)])] + [
            random_dep_graph(seed, WARP, CORPUS_CONFIG)
            for seed in range(2050, 2090)
        ]
        for graph in graphs:
            ExactScheduler(WARP).minimum_ii(graph)
        assert any(recurrence > 1 for recurrence, _ in built)
        assert all(s >= max(1, recurrence) for recurrence, s in built)
        # The first graph's minimum is its recurrence bound, probed first.
        assert built[0] == (7, 7)

    def test_proved_infeasible_raises(self):
        # Cap below the recurrence bound: every interval is certified
        # infeasible by the closure, so the decline is a theorem.
        graph = _graph("fadd", edges=[(0, 0, 7, 1)])
        exact = ExactScheduler(WARP, PipelinerPolicy(max_ii=3))
        outcome = exact.minimum_ii(graph)
        assert outcome.proved_infeasible
        with pytest.raises(SchedulingFailure, match="infeasible"):
            exact.schedule(graph)

    def test_unsat_interval_recorded(self):
        # Corpus seed 2062: MII 5 is UNSAT-refuted, minimum is 6.
        graph = random_dep_graph(2062, WARP, CORPUS_CONFIG)
        outcome = ExactScheduler(WARP).minimum_ii(graph)
        assert outcome.optimal
        assert outcome.mii.mii == 5
        assert outcome.ii == 6
        assert outcome.statuses[5] == "unsat"
        assert outcome.conflicts > 0

    def test_schedule_at_exact_interval(self):
        graph = _graph("load", "store")
        result = schedule_at(ExactScheduler(WARP), graph, 4)
        assert result is not None
        assert result.ii == 4
        assert audit_result(result) == []

    def test_schedule_at_below_recurrence_returns_none(self):
        graph = _graph("fadd", edges=[(0, 0, 7, 1)])
        assert schedule_at(ExactScheduler(WARP), graph, 3) is None

    def test_schedule_at_refuted_interval_returns_none(self):
        graph = random_dep_graph(2062, WARP, CORPUS_CONFIG)
        assert schedule_at(ExactScheduler(WARP), graph, 5) is None


class TestExactBudget:
    def test_validation(self):
        with pytest.raises(ValueError, match="exact_max_conflicts"):
            CompilerPolicy(exact_max_conflicts=0)

    def test_oversized_graph_is_too_large(self, monkeypatch):
        monkeypatch.setattr(encode, "MAX_TIME_SLOTS", 1)
        graph = _graph("fadd", "load")
        outcome = ExactScheduler(WARP).minimum_ii(graph)
        assert outcome.status == "too_large"
        assert outcome.ii is None

    def test_oversized_encoding_keeps_the_incumbent(self, monkeypatch):
        # Corpus unit gap_2086: heuristic 9, minimum 6.  With no encoding
        # admitted, the heuristic's schedule stands.
        monkeypatch.setattr(encode, "MAX_TIME_SLOTS", 1)
        graph = random_dep_graph(2086, WARP, CORPUS_CONFIG)
        with obs.observe() as observer:
            result = ExactScheduler(WARP).schedule(graph)
        assert result.ii == 9
        assert result.exact_search == "too_large"
        assert observer.counters["exact_too_large"] == 1
        assert observer.counters.get("exact_sat_calls", 0) == 0

    def test_oversized_after_a_decline_raises(self, monkeypatch):
        # Corpus unit decline_2024: the heuristic declines, so only the
        # SAT search could schedule it, and no encoding is admitted.
        monkeypatch.setattr(encode, "MAX_TIME_SLOTS", 1)
        graph = random_dep_graph(2024, WARP, CORPUS_CONFIG)
        with pytest.raises(SchedulingFailure, match="too_large"):
            ExactScheduler(WARP).schedule(graph)

    def test_clause_budget_is_too_large(self, monkeypatch):
        monkeypatch.setattr(encode, "MAX_CLAUSES", 10)
        graph = random_dep_graph(2154, WARP, CORPUS_CONFIG)
        exact = ExactScheduler(WARP)
        assert exact.minimum_ii(graph).status == "too_large"

    def test_conflict_budget_is_unknown(self):
        # Seed 2062 needs a real UNSAT proof at MII; one conflict is not
        # enough, so the search must answer "unknown", never "infeasible".
        graph = random_dep_graph(2062, WARP, CORPUS_CONFIG)
        exact = ExactScheduler(WARP, max_conflicts=1)
        outcome = exact.minimum_ii(graph)
        assert outcome.status == "unknown"
        assert not outcome.proved_infeasible
        # The compile path keeps the heuristic's II 6 and records why.
        result = exact.schedule(graph)
        assert result.ii == 6
        assert result.exact_search == "unknown"


class TestOptimalityOracle:
    def test_missed_decline_detected(self):
        # Corpus unit decline_2024: the heuristic gives up, the exact
        # backend schedules at MII — a pure search failure.
        graph = random_dep_graph(2024, WARP, CORPUS_CONFIG)
        with obs.observe() as observer:
            report = audit_optimality(graph, WARP)
        assert report.classification == "decline_missed"
        assert report.heuristic_ii is None
        assert report.exact_ii == report.mii
        assert report.ok and report.verified
        assert observer.counters["optimality_checks"] == 1
        assert observer.counters["optimality_decline_missed"] == 1

    def test_gap_sized(self):
        # Corpus unit gap_2086: heuristic 9 vs proven minimum 6.
        graph = random_dep_graph(2086, WARP, CORPUS_CONFIG)
        report = audit_optimality(graph, WARP)
        assert report.classification == "gap"
        assert (report.heuristic_ii, report.exact_ii) == (9, 6)
        assert report.gap == 3

    def test_optimal_above_mii_is_not_a_gap(self):
        # Seed 2062: heuristic II 6 > MII 5, yet 5 is UNSAT — the naive
        # "gap vs MII" metric would wrongly flag this as suboptimal.
        graph = random_dep_graph(2062, WARP, CORPUS_CONFIG)
        report = audit_optimality(graph, WARP)
        assert report.classification == "optimal"
        assert report.heuristic_ii == 6
        assert report.mii == 5
        assert report.gap == 0
        assert report.statuses[5] == "unsat"

    def test_blown_budget_verifies_nothing(self):
        graph = random_dep_graph(2062, WARP, CORPUS_CONFIG)
        report = audit_optimality(graph, WARP, max_conflicts=1)
        assert report.classification == "budget"
        assert not report.verified
        assert report.ok  # a blown budget is not a violation

    def test_gap_total_counter(self):
        graph = random_dep_graph(2086, WARP, CORPUS_CONFIG)
        with obs.observe() as observer:
            audit_optimality(graph, WARP)
        assert observer.counters["optimality_gap_total"] == 3


class TestExactProperties:
    """Seeded random sweeps: the backend's claims versus the heuristic
    and the invariant oracles."""

    @given(seed=st.integers(0, 50_000))
    @_settings
    def test_exact_between_mii_and_heuristic(self, seed):
        graph = random_dep_graph(seed, WARP, SWEEP_CONFIG)
        exact = ExactScheduler(WARP)
        outcome = exact.minimum_ii(graph)
        assert outcome.status in ("optimal", "infeasible")
        if not outcome.optimal:
            return
        assert outcome.ii >= outcome.mii.mii
        try:
            heuristic_ii = exact.heuristic.schedule(graph).ii
        except SchedulingFailure:
            return
        assert heuristic_ii >= outcome.ii

    @given(seed=st.integers(0, 50_000))
    @_settings
    def test_exact_schedules_pass_invariant_oracles(self, seed):
        graph = random_dep_graph(seed, WARP, SWEEP_CONFIG)
        outcome = ExactScheduler(WARP).minimum_ii(graph)
        if not outcome.optimal:
            return
        assert audit_result(outcome.result) == []

    @given(seed=st.integers(0, 50_000))
    @_settings
    def test_optimality_oracle_never_reports_violations(self, seed):
        graph = random_dep_graph(seed, WARP, SWEEP_CONFIG)
        report = audit_optimality(graph, WARP)
        assert report.ok, [str(v) for v in report.violations]
