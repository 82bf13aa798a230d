"""Whole-program compilation, end to end against the interpreter."""

import pytest

import repro.core.compile as compile_mod
from repro.core.compile import CompilerPolicy, compile_program
from repro.core.emit import RegisterPressureError
from repro.ir import INT, ProgramBuilder, Reg
from repro.machine import SIMPLE, WARP, make_warp
from repro.simulator import run_and_check
from conftest import build_conditional, build_dot, build_vadd, compile_and_check


class TestPipelinedLoops:
    @pytest.mark.parametrize("trip", [1, 2, 3, 5, 8, 13, 21, 50, 100])
    def test_vadd_all_trip_counts(self, trip):
        compile_and_check(build_vadd(trip))

    @pytest.mark.parametrize("trip", [1, 7, 14, 15, 99])
    def test_dot_all_trip_counts(self, trip):
        compile_and_check(build_dot(max(trip, 1)))

    @pytest.mark.parametrize("trip", [1, 2, 17, 64])
    def test_conditional_all_trip_counts(self, trip):
        compile_and_check(build_conditional(trip))

    def test_speedup_over_baseline(self):
        _, fast = compile_and_check(build_vadd(100))
        _, slow = compile_and_check(
            build_vadd(100), policy=CompilerPolicy(pipeline=False)
        )
        assert slow.cycles / fast.cycles > 3.0

    def test_conditional_program_speeds_up(self):
        _, fast = compile_and_check(build_conditional(64))
        _, slow = compile_and_check(
            build_conditional(64), policy=CompilerPolicy(pipeline=False)
        )
        assert slow.cycles > fast.cycles

    def test_simple_machine_also_works(self):
        compile_and_check(build_vadd(40), machine=SIMPLE)
        compile_and_check(build_dot(40), machine=SIMPLE)
        compile_and_check(build_conditional(40), machine=SIMPLE)

    def test_report_fields_populated(self):
        compiled, _ = compile_and_check(build_vadd(100))
        report = compiled.loops[0]
        assert report.pipelined
        assert report.ii == report.mii == 2
        assert report.resource_mii == 2
        assert report.trip_count == 100
        assert report.efficiency == 1.0
        assert report.achieved_lower_bound
        assert "pipelined ii=2" in compiled.report()


class TestLoopNests:
    def test_two_sequential_loops(self):
        pb = ProgramBuilder("two")
        pb.array("a", 128)
        pb.array("b", 128)
        with pb.loop("i", 0, 63) as body:
            body.store("b", body.var, body.fmul(body.load("a", body.var), 2.0))
        with pb.loop("j", 0, 63) as body:
            body.store("a", body.var, body.fadd(body.load("b", body.var), 1.0))
        compile_and_check(pb.finish())

    def test_nested_loops_with_reduction(self):
        pb = ProgramBuilder("rowsum")
        pb.array("m", 64)
        pb.array("out", 8)
        with pb.loop("i", 0, 7) as bi:
            base = bi.mul(bi.var, 8)
            s = bi.fmov(0.0)
            with bi.loop("j", 0, 7) as bj:
                s = bj.fadd(s, bj.load("m", bj.add(base, bj.var)), dest=s)
            bi.store("out", bi.var, s)
        compile_and_check(pb.finish())

    def test_triple_nest(self):
        pb = ProgramBuilder("mm")
        for name in ("A", "B", "C"):
            pb.array(name, 36)
        with pb.loop("i", 0, 5) as bi:
            ci = bi.mul(bi.var, 6)
            with bi.loop("k", 0, 5) as bk:
                aik = bk.load("A", bk.add(ci, bk.var))
                bk_base = bk.mul(bk.var, 6)
                with bk.loop("j", 0, 5) as bj:
                    x = bj.load("B", bj.add(bk_base, bj.var))
                    idx = bj.add(ci, bj.var)
                    old = bj.load("C", idx)
                    bj.store("C", idx, bj.fadd(old, bj.fmul(aik, x)))
        compile_and_check(pb.finish())

    def test_loop_variable_read_after_loop(self):
        pb = ProgramBuilder("after")
        pb.array("out", 8)
        with pb.loop("i", 0, 9) as body:
            body.mov(0)
        pb.store("out", 0, pb.i2f(Reg("i", INT)))
        compiled, _ = compile_and_check(pb.finish())

    def test_scalar_code_between_loops(self):
        pb = ProgramBuilder("mix")
        pb.array("a", 64)
        scale = pb.fmul(pb.fadd(1.0, 1.0), 0.75)
        with pb.loop("i", 0, 31) as body:
            body.store("a", body.var, body.fmul(body.load("a", body.var), scale))
        compile_and_check(pb.finish())


class TestDynamicTrips:
    def test_runtime_bound_uses_two_version_scheme(self):
        pb = ProgramBuilder("dyn")
        pb.array("a", 128)
        pb.array("nbox", 2, INT)
        n = pb.load("nbox", 0)
        with pb.loop("i", 0, n) as body:
            body.store("a", body.var, body.fadd(body.load("a", body.var), 1.0))
        compiled, _ = compile_and_check(pb.finish(), array_init=_n_init)
        report = compiled.loops[0]
        assert report.pipelined
        assert report.two_version

    def test_zero_trip_dynamic_loop(self):
        pb = ProgramBuilder("dyn0")
        pb.array("a", 16)
        pb.array("nbox", 2, INT)
        n = pb.load("nbox", 0)
        with pb.loop("i", 1, n) as body:
            body.store("a", body.var, 1.0)
        compile_and_check(pb.finish(), array_init=lambda nm, i: 0)


def _n_init(name, index):
    if name == "nbox":
        return 57
    from repro.ir.interp import default_array_init

    return default_array_init(name, index)


class TestFallbacks:
    def test_register_pressure_falls_back(self):
        tiny = make_warp(num_registers=6)
        compiled = compile_program(build_vadd(100), tiny)
        report = compiled.loops[0]
        if not report.pipelined:
            assert "register" in report.reason.lower()
        run_and_check(compiled.code)

    def test_pipelining_disabled_reason(self):
        compiled = compile_program(
            build_vadd(100), WARP, CompilerPolicy(pipeline=False)
        )
        assert compiled.loops[0].reason == "pipelining disabled"

    def test_body_length_threshold(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "MAX_BODY_LENGTH", 2)
        compiled = compile_program(build_vadd(100), WARP)
        report = compiled.loops[0]
        assert not report.pipelined
        assert "threshold" in report.reason
        run_and_check(compiled.code)

    def test_min_gain_gate(self, monkeypatch):
        monkeypatch.setattr(compile_mod, "MIN_GAIN", 0.01)
        compiled = compile_program(build_vadd(100), WARP)
        report = compiled.loops[0]
        assert not report.pipelined
        run_and_check(compiled.code)

    def test_too_few_iterations(self):
        compiled = compile_program(build_vadd(3), WARP)
        report = compiled.loops[0]
        assert not report.pipelined
        assert "cannot fill" in report.reason
        run_and_check(compiled.code)

    def test_binary_search_policy_end_to_end(self):
        compiled, _ = compile_and_check(
            build_vadd(100), policy=CompilerPolicy(search="binary")
        )
        assert compiled.loops[0].pipelined

    def test_min_registers_mve_policy_end_to_end(self):
        from repro.core.mve import MIN_REGISTERS

        compiled, _ = compile_and_check(
            build_vadd(100), policy=CompilerPolicy(mve_policy=MIN_REGISTERS)
        )
        assert compiled.loops[0].pipelined

    def test_cse_disabled_still_correct(self):
        compile_and_check(build_dot(60), policy=CompilerPolicy(cse=False))

    def test_unserialized_ifs_policy(self):
        compiled, _ = compile_and_check(
            build_conditional(64),
            policy=CompilerPolicy(serialize_ifs=False),
        )
