"""The audit subsystem: oracles catch corruption, the fuzzer is
reproducible, and the campaign driver isolates faults.

The oracle tests work by tampering: take a schedule the real pipeline
produced (and therefore audits clean), break one invariant by hand, and
require the matching violation kind — proving the oracles re-derive the
constraints rather than trusting the scheduler's bookkeeping.
"""

import math
from dataclasses import replace

import pytest

from repro.audit import (
    FuzzReport,
    GraphConfig,
    ProgramConfig,
    audit_expansion,
    audit_modulo_resources,
    audit_precedence,
    audit_program,
    audit_result,
    audit_schedule,
    audit_window,
    random_dep_graph,
    random_program,
    run_campaign,
)
from repro.audit.fuzz import FuzzCase, run_case, run_graph_case
from repro.audit.oracle import (
    CLUSTER,
    MVE_COPIES,
    MVE_LIFETIME,
    MVE_OMEGA,
    MVE_UNROLL,
    PRECEDENCE,
    RESOURCE,
    WINDOW_PRECEDENCE,
)
from repro.audit.differential import audit_loop_schedules
from repro.batch import run_many
from repro.core.compile import CompilerPolicy
from repro.core.mve import plan_expansion
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph
from repro.frontend import parse_program
from repro.ir import ProgramBuilder
from repro.machine import SIMPLE, WARP
from repro.obs import trace as obs
from repro.simulator import memory_diffs, values_match

NAN = float("nan")


def _vadd_result(machine=WARP):
    pb = ProgramBuilder("vadd")
    pb.array("a", 256)
    with pb.loop("i", 0, 99) as body:
        x = body.load("a", body.var)
        body.store("a", body.var, body.fadd(x, 1.5))
    lg = build_reduced_loop_graph(pb.finish().body[-1], machine)
    result = ModuloScheduler(machine).schedule(lg.graph)
    plan = plan_expansion(result.schedule, lg.options.expanded_regs)
    return result, plan


def _chain_result(machine=WARP):
    """b[i+1] := b[i] * 0.5 + a[i]: a multi-node SCC cluster."""
    pb = ProgramBuilder("chain")
    pb.array("a", 256)
    pb.array("b", 256)
    with pb.loop("i", 0, 62) as body:
        prev = body.load("b", body.var)
        body.store("b", body.var, body.fadd(body.fmul(prev, 0.5),
                                            body.load("a", body.var)),
                   offset=1)
    lg = build_reduced_loop_graph(pb.finish().body[-1], machine)
    result = ModuloScheduler(machine).schedule(lg.graph)
    plan = plan_expansion(result.schedule, lg.options.expanded_regs)
    return result, plan


class TestOraclesAcceptRealSchedules:
    def test_vadd_is_clean(self):
        result, plan = _vadd_result()
        assert audit_result(result, plan) == []

    def test_chain_is_clean(self):
        result, plan = _chain_result()
        assert audit_result(result, plan) == []

    def test_simple_machine_is_clean(self):
        result, plan = _vadd_result(SIMPLE)
        assert audit_result(result, plan) == []


class TestOraclesDetectTampering:
    def test_precedence_violation_detected(self):
        result, _ = _vadd_result()
        schedule = result.schedule
        edge = max(schedule.graph.edges, key=lambda e: e.delay - e.omega)
        times = dict(schedule.times)
        # Pull the destination to the source's slot: delay can no longer
        # be covered (vadd's critical edge is the 7-cycle fadd latency).
        times[edge.dst.index] = times[edge.src.index]
        bad = replace(schedule, times=times)
        kinds = {v.kind for v in audit_precedence(bad)}
        assert PRECEDENCE in kinds
        kinds = {v.kind for v in audit_window(bad)}
        assert WINDOW_PRECEDENCE in kinds

    def test_resource_violation_detected(self):
        result, _ = _vadd_result()
        schedule = result.schedule
        mem_nodes = [
            n for n in schedule.graph.nodes
            if "mem" in n.reservation.resources()
        ]
        assert len(mem_nodes) >= 2
        times = dict(schedule.times)
        # Pile every memory access onto one modulo row of the single port.
        for node in mem_nodes:
            times[node.index] = 0
        bad = replace(schedule, times=times)
        kinds = {v.kind for v in audit_modulo_resources(bad)}
        assert RESOURCE in kinds

    def test_cluster_inconsistency_detected(self):
        result, plan = _chain_result()
        cluster = max(result.clusters, key=lambda c: len(c.members))
        assert len(cluster.members) >= 2  # the recurrence SCC
        victim = cluster.members[0].index
        cluster.offsets[victim] += 1
        kinds = {v.kind for v in audit_result(result, plan)}
        assert CLUSTER in kinds

    def test_expansion_unroll_tampering_detected(self):
        result, plan = _vadd_result()
        assert plan.expanded
        bad = replace(plan, unroll=plan.unroll * 2)
        kinds = {v.kind for v in audit_expansion(result.schedule, bad)}
        assert MVE_UNROLL in kinds

    def test_expansion_copy_starvation_detected(self):
        result, plan = _vadd_result()
        reg = max(plan.q, key=plan.q.get)
        assert plan.q[reg] >= 2
        copies = dict(plan.copies)
        copies[reg] = 1
        bad = replace(plan, copies=copies)
        kinds = {v.kind for v in audit_expansion(result.schedule, bad)}
        assert MVE_LIFETIME in kinds

    def test_expansion_q_tampering_detected(self):
        result, plan = _vadd_result()
        reg = next(iter(plan.q))
        q = dict(plan.q)
        q[reg] += 1
        bad = replace(plan, q=q)
        kinds = {v.kind for v in audit_expansion(result.schedule, bad)}
        assert MVE_LIFETIME in kinds

    def test_expansion_omega_tampering_detected(self):
        result, plan = _vadd_result()
        key = next(iter(plan.use_omega))
        use_omega = dict(plan.use_omega)
        use_omega[key] = 1 - use_omega[key]
        bad = replace(plan, use_omega=use_omega)
        kinds = {v.kind for v in audit_expansion(result.schedule, bad)}
        assert MVE_OMEGA in kinds

    def test_non_divisor_copies_detected(self):
        result, plan = _vadd_result()
        reg = max(plan.q, key=plan.q.get)
        copies = dict(plan.copies)
        copies[reg] = plan.unroll + 1
        bad = replace(plan, copies=copies)
        kinds = {v.kind for v in audit_expansion(result.schedule, bad)}
        assert MVE_COPIES in kinds

    def test_audit_schedule_aggregates_all_kinds(self):
        result, plan = _vadd_result()
        times = {index: 0 for index in result.schedule.times}
        bad = replace(result.schedule, times=times)
        kinds = {v.kind for v in audit_schedule(bad, plan)}
        assert PRECEDENCE in kinds and RESOURCE in kinds


class TestNanAwareComparison:
    """Regression for the differential comparator: nan != nan is not a
    mismatch — both sides computed the same (wrong or right) thing."""

    def test_nan_matches_nan(self):
        assert values_match(NAN, NAN)

    def test_nan_differs_from_number(self):
        assert not values_match(NAN, 1.0)
        assert not values_match(1.0, NAN)

    def test_plain_values(self):
        assert values_match(2.5, 2.5)
        assert not values_match(2.5, 2.0)

    def test_memory_diffs_ignores_matching_nans(self):
        assert memory_diffs({("c", 0): NAN}, {("c", 0): NAN}) == []

    def test_memory_diffs_reports_union_of_keys(self):
        diffs = memory_diffs({("c", 0): 1.0}, {("c", 1): 2.0})
        assert len(diffs) == 2


class TestGenerators:
    def test_program_generation_is_deterministic(self):
        assert random_program(42).source == random_program(42).source

    def test_seeds_differ(self):
        sources = {random_program(seed).source for seed in range(8)}
        assert len(sources) >= 7

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_programs_parse(self, seed):
        program, _ = parse_program(random_program(seed).source)
        assert program.body

    def test_graph_generation_is_deterministic(self):
        a = random_dep_graph(7, WARP)
        b = random_dep_graph(7, WARP)
        assert [(e.src.index, e.dst.index, e.delay, e.omega)
                for e in a.edges] == \
               [(e.src.index, e.dst.index, e.delay, e.omega)
                for e in b.edges]

    def test_graph_respects_size_knobs(self):
        config = GraphConfig(min_nodes=4, max_nodes=5)
        for seed in range(5):
            graph = random_dep_graph(seed, WARP, config)
            assert 4 <= len(graph.nodes) <= 5

    def test_no_zero_omega_cycles_by_construction(self):
        for seed in range(10):
            graph = random_dep_graph(seed, WARP)
            for edge in graph.edges:
                if edge.omega == 0:
                    assert edge.src.index < edge.dst.index


class TestCampaign:
    def test_graph_cases_audit_clean(self):
        for seed in range(12):
            assert run_graph_case(seed, WARP) == []

    def test_fixed_seed_smoke(self):
        report = run_campaign(seed=1988, count=6, graphs=3)
        assert report.failures == []
        assert len(report.results) == 9
        assert report.counters.get("audit_loops_scheduled", 0) > 0
        assert report.counters.get("audit_differential_runs", 0) > 0

    def test_parallel_matches_serial(self):
        serial = run_campaign(seed=300, count=5, graphs=2, jobs=1)
        threaded = run_campaign(seed=300, count=5, graphs=2, jobs=4)
        assert [r.case for r in serial.results] == \
               [r.case for r in threaded.results]
        assert [r.violations for r in serial.results] == \
               [r.violations for r in threaded.results]

    def test_case_crash_is_isolated(self):
        bad = FuzzCase("program", -1)

        def boom(case):
            raise RuntimeError("generator exploded")

        # run_case catches everything the case raises...
        result = run_case(FuzzCase("graph", 3))
        assert result.ok
        # ...and run_many propagates only what workers return.
        results = run_many([bad, FuzzCase("graph", 3)], run_case, jobs=2)
        assert len(results) == 2

    def test_repro_commands(self):
        assert FuzzCase("program", 17).repro_command() == \
            "python -m repro fuzz --seed 17 --count 1 --graphs 0"
        assert FuzzCase("graph", 17).repro_command() == \
            "python -m repro fuzz --seed 17 --count 0 --graphs 1"

    def test_report_shape(self):
        report = run_campaign(seed=12, count=2, graphs=1)
        payload = report.to_dict()
        assert payload["cases"] == 3
        assert payload["programs"] == 2
        assert payload["graphs"] == 1
        assert "violations" in payload and "counters" in payload
        assert "cases" in report.summary()


class TestRunMany:
    def test_preserves_input_order(self):
        items = list(range(25))
        assert run_many(items, lambda x: x * 2, jobs=4) == \
            [x * 2 for x in items]

    def test_serial_path(self):
        assert run_many([3, 1], lambda x: -x, jobs=1) == [-3, -1]


class TestAuditProgram:
    def test_never_raises_on_garbage(self):
        violations = audit_program("bad", "this is not a program")
        assert violations and violations[0].kind == "crash"
        assert "frontend" in violations[0].where

    SOURCE = """program ok;
var a: array[40] of float;
begin
  for i := 0 to 31 do begin
    a[i] := a[i] * 2.0 + 1.0;
  end;
end.
"""

    def test_clean_on_known_good_source(self):
        assert audit_program("ok", self.SOURCE) == []

    def test_loop_audit_uses_the_policy_backend(self):
        program, _ = parse_program(self.SOURCE)
        policy = CompilerPolicy(scheduler_backend="exact")
        with obs.observe() as observer:
            violations = audit_loop_schedules(program, WARP, policy, "ok")
        assert violations == []
        assert observer.counters["audit_loops_scheduled"] == 1
        assert observer.counters.get("exact_sat_calls", 0) >= 1

    def test_register_pressure_is_a_decline_not_a_crash(self):
        # Seed 31615 legitimately needs more registers than warp has
        # (two busy expanded loops under an outer loop); refusing is
        # correct and must not be reported as a violation.
        generated = random_program(31615)
        assert audit_program(generated.name, generated.source) == []
