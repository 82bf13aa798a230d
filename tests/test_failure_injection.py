"""Failure injection: resource exhaustion, impossible schedules, hostile
inputs, and runtime hazard detection."""

import pytest

from repro import CompilerPolicy, compile_source
from repro.core.compile import compile_program
from repro.core.emit import BlockRegion, CodeObject, SlotOp, WideInstruction
from repro.core.pipeliner import ModuloScheduler, PipelinerPolicy
from repro.core.reduction import build_reduced_loop_graph
from repro.core.schedule import SchedulingFailure
from repro.deps.paths import CyclicDependenceError
from repro.frontend import LexError, LowerError, ParseError
from repro.ir import FLOAT, Imm, Opcode, Operation, Program, ProgramBuilder, Reg
from repro.ir.verify import IRError
from repro.machine import WARP, make_warp
from repro.simulator import SimulationError, VLIWSimulator, run_and_check
from conftest import build_conditional, build_dot, build_vadd


class TestRegisterExhaustion:
    @pytest.mark.parametrize("registers", [4, 6, 8, 12])
    def test_fallback_chain_stays_correct(self, registers):
        """With few registers, the compiler must fall back gracefully —
        and whatever it emits must still compute the right answer."""
        machine = make_warp(num_registers=registers)
        try:
            compiled = compile_program(build_vadd(40), machine)
        except Exception as error:  # truly impossible programs may raise
            pytest.skip(f"not compilable at {registers} registers: {error}")
        run_and_check(compiled.code)

    def test_mve_pressure_reported(self):
        machine = make_warp(num_registers=7)
        compiled = compile_program(build_vadd(100), machine)
        report = compiled.loops[0]
        if not report.pipelined:
            assert "register" in report.reason.lower()


class TestImpossibleSchedules:
    def test_interval_cap_failure_is_typed(self):
        loop = build_vadd(40).inner_loops()[0]
        lg = build_reduced_loop_graph(loop, WARP)
        with pytest.raises(SchedulingFailure) as excinfo:
            ModuloScheduler(WARP, PipelinerPolicy(max_ii=1)).schedule(lg.graph)
        # The cap sits below the lower bound: nothing was even attempted.
        assert excinfo.value.attempts == []
        assert "no schedule found" in str(excinfo.value)

    def test_zero_omega_positive_cycle_rejected(self):
        from repro.deps.graph import DepGraph, DepNode
        from repro.machine.resources import ReservationTable

        graph = DepGraph()
        a = DepNode(0, ReservationTable.single("alu"), Operation(Opcode.NOP))
        b = DepNode(1, ReservationTable.single("alu"), Operation(Opcode.NOP))
        graph.add_node(a)
        graph.add_node(b)
        graph.add_edge(a, b, 3, 0)
        graph.add_edge(b, a, 3, 0)
        with pytest.raises(CyclicDependenceError):
            ModuloScheduler(WARP).prepare(graph)


class TestHostileSource:
    @pytest.mark.parametrize(
        "source,error",
        [
            ("program p begin end.", ParseError),          # missing ';'
            ("program p; begin x := ; end.", ParseError),  # empty expr
            ("program p; begin { end.", LexError),         # open comment
            ("program p; begin x := 1; end.", LowerError), # undeclared
            ("program p; var x: int; begin x := 1.5; end.", LowerError),
            ("program p; {$turbo} begin end.", ParseError),
        ],
    )
    def test_rejected_with_typed_errors(self, source, error):
        with pytest.raises(error):
            compile_source(source, WARP)

    def test_out_of_bounds_caught_at_simulation(self):
        compiled = compile_source(
            """program p;
            var a: array[4] of float;
            begin
              for i := 0 to 9 do a[i] := 1.0;
            end.""",
            WARP,
        )
        with pytest.raises(SimulationError, match="out of bounds"):
            run_and_check(compiled.code)


class TestRuntimeHazardDetection:
    def test_write_port_collision_detected(self):
        """Two same-cycle commits to one register are a scheduling bug the
        simulator must refuse to paper over."""
        program = Program("t")
        program.declare("out", 4)
        x = Reg("R0", FLOAT)
        collision = BlockRegion(
            [
                WideInstruction([
                    SlotOp(Operation(Opcode.FADD, x, (Imm(1.0), Imm(2.0)))),
                    SlotOp(Operation(Opcode.FMOV, x, (Imm(9.0),))),
                ]),
            ]
        )
        # fadd commits at +7, fmov at +7 (same op class): same-cycle clash.
        code = CodeObject(program, WARP, [collision])
        with pytest.raises(SimulationError, match="collision"):
            VLIWSimulator(code).run()

    def test_real_compilations_never_collide(self):
        for program in (build_vadd(64), build_dot(64), build_conditional(64)):
            run_and_check(compile_program(program, WARP).code)


class TestDegenerateShapes:
    def test_empty_program(self):
        compiled = compile_program(Program("empty"), WARP)
        run_and_check(compiled.code)

    def test_loop_with_empty_body(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        with pb.loop("i", 0, 9):
            pass
        run_and_check(compile_program(pb.finish(), WARP).code)

    def test_if_with_empty_arms_in_loop(self):
        pb = ProgramBuilder("p")
        pb.array("a", 16)
        with pb.loop("i", 0, 9) as body:
            x = body.load("a", body.var)
            cond = body.fgt(x, 0.0)
            with body.if_(cond):
                pass
            body.store("a", body.var, x)
        run_and_check(compile_program(pb.finish(), WARP).code)

    def test_single_iteration_everything(self):
        for builder in (build_vadd, build_dot, build_conditional):
            run_and_check(compile_program(builder(1), WARP).code)

    def test_downto_loop_pipelines_correctly(self):
        pb = ProgramBuilder("down")
        pb.array("a", 128)
        with pb.loop("i", 99, 0, step=-1) as body:
            x = body.load("a", body.var)
            body.store("a", body.var, body.fadd(x, 1.0))
        compiled = compile_program(pb.finish(), WARP)
        run_and_check(compiled.code)

    def test_downto_with_carried_dependence(self):
        """a[i] := a[i+1]*c with i descending: distance-1 recurrence in
        iteration space even though the subscript offset is positive."""
        pb = ProgramBuilder("down2")
        pb.array("a", 128)
        with pb.loop("i", 98, 0, step=-1) as body:
            x = body.load("a", body.var, offset=1)
            body.store("a", body.var, body.fmul(x, 0.5))
        compiled = compile_program(pb.finish(), WARP)
        run_and_check(compiled.code)

    def test_step_three_loop(self):
        pb = ProgramBuilder("stride")
        pb.array("a", 128)
        with pb.loop("i", 0, 90, step=3) as body:
            x = body.load("a", body.var)
            body.store("a", body.var, body.fadd(x, 1.0), offset=1)
        run_and_check(compile_program(pb.finish(), WARP).code)
