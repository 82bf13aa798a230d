"""Core scheduling: MRT, MII bounds, list scheduling, the modulo scheduler."""

import pytest

from repro.audit.oracle import (
    PRECEDENCE,
    audit_block_schedule,
    audit_modulo_resources,
    audit_precedence,
)
from repro.core.listsched import block_heights, list_schedule_block
from repro.core.mii import resource_mii
from repro.core.mrt import ModuloReservationTable
from repro.core.pipeliner import ModuloScheduler, PipelinerPolicy
from repro.core.schedule import SchedulingFailure
from repro.deps import DependenceOptions, build_block_graph, build_loop_graph
from repro.core.reduction import build_reduced_loop_graph
from repro.ir import Imm, Opcode, Operation, ProgramBuilder, Reg
from repro.machine import SIMPLE, WARP, make_custom
from repro.machine.resources import ReservationTable, ResourceUse
from repro.obs import trace as obs

from reference import schedule_at


def _acc_loop():
    """An accumulator loop: one nontrivial SCC, so prepare() builds a
    symbolic closure."""
    pb = ProgramBuilder("acc")
    pb.array("a", 256)
    s = pb.fmov(0.0)
    with pb.loop("i", 0, 9) as body:
        body.fadd(s, body.load("a", body.var), dest=s)
    return build_reduced_loop_graph(pb.finish().body[-1], WARP)


def _assert_valid(schedule):
    assert audit_modulo_resources(schedule) == []
    assert audit_precedence(schedule) == []


def _vadd_loop(n=99):
    pb = ProgramBuilder("vadd")
    pb.array("a", 256)
    with pb.loop("i", 0, n) as body:
        x = body.load("a", body.var)
        body.store("a", body.var, body.fadd(x, 1.5))
    return pb.finish().body[-1]


class TestMrt:
    def test_place_and_usage(self):
        mrt = ModuloReservationTable(WARP, 4)
        mrt.place(ReservationTable.single("alu"), 2)
        assert mrt.usage(2, "alu") == 1
        assert mrt.usage(6, "alu") == 1  # modulo view

    def test_wraparound_conflict(self):
        mrt = ModuloReservationTable(WARP, 3)
        mrt.place(ReservationTable.single("mem"), 1)
        assert not mrt.fits(ReservationTable.single("mem"), 4)  # 4 mod 3 == 1
        assert mrt.fits(ReservationTable.single("mem"), 5)

    def test_multicycle_pattern(self):
        pattern = ReservationTable([ResourceUse(0, "alu"), ResourceUse(1, "alu")])
        mrt = ModuloReservationTable(WARP, 2)
        mrt.place(pattern, 0)  # occupies both rows
        assert not mrt.fits(ReservationTable.single("alu"), 0)
        assert not mrt.fits(ReservationTable.single("alu"), 1)

    def test_earliest_fit_scans_at_most_s_slots(self):
        mrt = ModuloReservationTable(WARP, 3)
        for row in range(3):
            mrt.place(ReservationTable.single("seq"), row)
        assert mrt.earliest_fit(ReservationTable.single("seq"), 0) is None

    def test_earliest_fit_respects_latest(self):
        mrt = ModuloReservationTable(WARP, 4)
        mrt.place(ReservationTable.single("alu"), 0)
        assert mrt.earliest_fit(ReservationTable.single("alu"), 0, latest=0) is None
        assert mrt.earliest_fit(ReservationTable.single("alu"), 0, latest=1) == 1

    def test_remove_restores_capacity(self):
        mrt = ModuloReservationTable(WARP, 2)
        table = ReservationTable.single("fadd")
        mrt.place(table, 0)
        mrt.remove(table, 0)
        assert mrt.fits(table, 0)

    def test_remove_unplaced_raises(self):
        mrt = ModuloReservationTable(WARP, 2)
        with pytest.raises(ValueError):
            mrt.remove(ReservationTable.single("fadd"), 0)

    def test_failed_remove_leaves_usage_unchanged(self):
        # Removing a pattern whose *second* row was never placed must not
        # decrement the first row on its way to the error.
        mrt = ModuloReservationTable(WARP, 3)
        mrt.place(ReservationTable.single("alu"), 0)
        two_rows = ReservationTable(
            [ResourceUse(0, "alu"), ResourceUse(1, "alu")]
        )
        with pytest.raises(ValueError):
            mrt.remove(two_rows, 0)
        assert mrt.usage(0, "alu") == 1
        assert mrt.usage(1, "alu") == 0

    def test_remove_same_cell_entries_validated_together(self):
        # Two pattern entries landing on the same modulo cell must be
        # summed before validation: each alone fits the single placed
        # unit, together they do not.
        mrt = ModuloReservationTable(WARP, 2)
        mrt.place(ReservationTable.single("alu"), 0)
        folded = ReservationTable(
            [ResourceUse(0, "alu"), ResourceUse(2, "alu")]  # 2 mod 2 == 0
        )
        with pytest.raises(ValueError):
            mrt.remove(folded, 0)
        assert mrt.usage(0, "alu") == 1

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            ModuloReservationTable(WARP, 0)


class TestMii:
    def test_vadd_resource_bound_is_memory(self):
        graph = build_loop_graph(_vadd_loop(), WARP)
        bound, critical = resource_mii(graph.nodes, WARP)
        assert bound == 2          # load + store on one memory port
        assert critical == "mem"

    def test_extra_uses_counted(self):
        graph = build_loop_graph(_vadd_loop(), WARP)
        bound, _ = resource_mii(graph.nodes, WARP, {"mem": 2})
        assert bound == 4

    def test_recurrence_bound_of_accumulator(self):
        pb = ProgramBuilder("acc")
        pb.array("a", 256)
        s = pb.fmov(0.0)
        with pb.loop("i", 0, 9) as body:
            body.fadd(s, body.load("a", body.var), dest=s)
        graph = build_reduced_loop_graph(pb.finish().body[-1], WARP).graph
        mii = ModuloScheduler(WARP).prepare(graph).mii
        assert mii.recurrence == 7  # fadd latency

    def test_critical_resource_reported_at_bound_one(self):
        # The bound starts at 1; a resource that *attains* 1 is still the
        # binding one and must be named, not left empty.
        ops = [
            Operation(Opcode.FADD, Reg("x", "float"), (Imm(1.0), Imm(2.0))),
        ]
        graph = build_block_graph(ops, WARP)
        bound, critical = resource_mii(graph.nodes, WARP)
        assert bound == 1
        assert critical == sorted(
            graph.nodes[0].reservation.resources()
        )[0]

    def test_critical_resource_in_full_report(self):
        graph = build_loop_graph(_vadd_loop(), WARP)
        report = ModuloScheduler(WARP).prepare(graph).mii
        assert report.critical_resource == "mem"

    def test_mii_is_max_of_bounds(self):
        graph = build_loop_graph(_vadd_loop(), WARP)
        report = ModuloScheduler(WARP).prepare(graph).mii
        assert report.mii == max(report.resource, report.recurrence)


class TestListScheduling:
    def test_respects_flow_latency(self):
        ops = [
            Operation(Opcode.FADD, Reg("x", "float"), (Imm(1.0), Imm(2.0))),
            Operation(Opcode.FADD, Reg("y", "float"), (Reg("x", "float"), Imm(1.0))),
        ]
        graph = build_block_graph(ops, WARP)
        schedule = list_schedule_block(graph, WARP)
        assert schedule.times[1] - schedule.times[0] >= 7
        assert audit_block_schedule(schedule) == []

    def test_packs_independent_ops_across_units(self):
        ops = [
            Operation(Opcode.FADD, Reg("x", "float"), (Imm(1.0), Imm(2.0))),
            Operation(Opcode.FMUL, Reg("y", "float"), (Imm(1.0), Imm(2.0))),
            Operation(Opcode.ADD, Reg("i"), (Imm(1), Imm(2))),
        ]
        schedule = list_schedule_block(build_block_graph(ops, WARP), WARP)
        assert all(t == 0 for t in schedule.times.values())

    def test_serialises_on_single_unit(self):
        ops = [
            Operation(Opcode.FADD, Reg(f"x{i}", "float"), (Imm(1.0), Imm(2.0)))
            for i in range(3)
        ]
        schedule = list_schedule_block(build_block_graph(ops, WARP), WARP)
        assert sorted(schedule.times.values()) == [0, 1, 2]

    def test_heights_prioritise_critical_path(self):
        # x feeds a long chain; y is independent.  x must go first.
        ops = [
            Operation(Opcode.FADD, Reg("y", "float"), (Imm(1.0), Imm(1.0))),
            Operation(Opcode.FADD, Reg("x", "float"), (Imm(1.0), Imm(2.0))),
            Operation(Opcode.FADD, Reg("z", "float"),
                      (Reg("x", "float"), Imm(1.0))),
        ]
        graph = build_block_graph(ops, WARP)
        heights = block_heights(graph)
        assert heights[1] > heights[0]
        schedule = list_schedule_block(graph, WARP)
        assert schedule.times[1] < schedule.times[0]

    def test_completion_length_covers_write_latency(self):
        ops = [Operation(Opcode.FADD, Reg("x", "float"), (Imm(1.0), Imm(2.0)))]
        schedule = list_schedule_block(build_block_graph(ops, WARP), WARP)
        assert schedule.length == 1
        assert schedule.completion_length == 7


class TestModuloScheduler:
    def test_vadd_achieves_mii(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        result = ModuloScheduler(WARP).schedule(lg.graph)
        assert result.schedule.ii == 2
        assert result.schedule.achieved_lower_bound
        _assert_valid(result.schedule)

    def test_recurrence_constrains_ii(self):
        pb = ProgramBuilder("acc")
        pb.array("a", 256)
        s = pb.fmov(0.0)
        with pb.loop("i", 0, 9) as body:
            body.fadd(s, body.load("a", body.var), dest=s)
        lg = build_reduced_loop_graph(pb.finish().body[-1], WARP)
        result = ModuloScheduler(WARP).schedule(lg.graph)
        assert result.schedule.ii == 7
        _assert_valid(result.schedule)

    def test_linear_search_records_attempts(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        result = ModuloScheduler(WARP).schedule(lg.graph)
        assert result.schedule.attempts[0] == result.schedule.mii.mii

    def test_search_reuses_the_prepared_graph(self):
        lg = _acc_loop()
        scheduler = ModuloScheduler(WARP)
        with obs.observe() as observer:
            prepared = scheduler.prepare(lg.graph)
            first = scheduler.search(prepared)
            again = scheduler.search(prepared)
        assert again.ii == first.ii == 7
        assert first.schedule.mii is prepared.mii
        # Preparation (SCCs, closures, MII) runs in the "mii" phase, and
        # searches on the prepared graph never repeat it.
        assert observer.phase_calls["mii"] == 1

    def test_binary_search_finds_schedule(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        result = ModuloScheduler(
            WARP, PipelinerPolicy(search="binary")
        ).schedule(lg.graph)
        _assert_valid(result.schedule)
        assert result.schedule.ii >= result.schedule.mii.mii

    def test_unknown_search_policy_rejected(self):
        with pytest.raises(ValueError):
            PipelinerPolicy(search="simulated-annealing")

    def test_schedule_at_below_recurrence_returns_none(self):
        pb = ProgramBuilder("acc")
        pb.array("a", 256)
        s = pb.fmov(0.0)
        with pb.loop("i", 0, 9) as body:
            body.fadd(s, body.load("a", body.var), dest=s)
        lg = build_reduced_loop_graph(pb.finish().body[-1], WARP)
        assert schedule_at(ModuloScheduler(WARP), lg.graph, 3) is None

    def test_schedule_at_exact_interval(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        result = schedule_at(ModuloScheduler(WARP), lg.graph, 5)
        assert result is not None
        assert result.schedule.ii == 5
        _assert_valid(result.schedule)

    def test_failure_below_cap_raises(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        scheduler = ModuloScheduler(WARP, PipelinerPolicy(max_ii=1))
        with pytest.raises(SchedulingFailure):
            scheduler.schedule(lg.graph)

    def test_wider_machine_lowers_ii(self):
        wide = make_custom(
            "wide", {"fadd": 1, "fmul": 1, "alu": 2, "mem": 2, "seq": 1},
            fadd_latency=7, fmul_latency=7, load_latency=4,
        )
        lg = build_reduced_loop_graph(_vadd_loop(), wide)
        result = ModuloScheduler(wide).schedule(lg.graph)
        assert result.schedule.ii == 1

    def test_every_iteration_identical_modulo_check(self):
        """The steady state of any found schedule never oversubscribes."""
        lg = build_reduced_loop_graph(_vadd_loop(), SIMPLE)
        result = ModuloScheduler(SIMPLE).schedule(lg.graph)
        _assert_valid(result.schedule)

    def test_validator_catches_broken_schedule(self):
        lg = build_reduced_loop_graph(_vadd_loop(), WARP)
        result = ModuloScheduler(WARP).schedule(lg.graph)
        schedule = result.schedule
        edge = next(
            e for e in schedule.graph.edges if e.omega == 0 and e.delay > 0
        )
        schedule.times[edge.dst.index] = schedule.times[edge.src.index]
        assert [v.kind for v in audit_precedence(schedule)] == [PRECEDENCE]
