"""The two-version scheme for runtime trip counts (paper, section 2.4).

"If n < k then all n iterations are executed using the unpipelined code.
Otherwise, we execute (n-k) mod u iterations using the unpipelined code,
and the rest on the pipelined loop. [...] the total code size is at most
four times the size of the unpipelined loop."
"""

import pytest

from repro.core.compile import CompilerPolicy, compile_program
from repro.core.emit import GuardedRegion, PeelCount, PipelinePasses, TripSpec
from repro.ir import INT, Imm, ProgramBuilder
from repro.ir.interp import default_array_init
from repro.machine import WARP
from repro.simulator import run_and_check


def build_dynamic(body_kind="vadd"):
    pb = ProgramBuilder("dyn")
    pb.array("a", 200)
    pb.array("out", 4)
    pb.array("nbox", 2, INT)
    n = pb.load("nbox", 0)
    if body_kind == "vadd":
        with pb.loop("i", 0, n) as body:
            x = body.load("a", body.var)
            body.store("a", body.var, body.fadd(x, 1.5))
    elif body_kind == "acc":
        s = pb.fmov(0.0)
        with pb.loop("i", 0, n) as body:
            s = body.fadd(s, body.load("a", body.var), dest=s)
        pb.store("out", 0, s)
    elif body_kind == "cond":
        with pb.loop("i", 0, n) as body:
            x = body.load("a", body.var)
            cond = body.fgt(x, 0.0)
            with body.if_(cond) as (then, other):
                then.store("a", then.var, then.fmul(x, 2.0))
                other.store("a", other.var, other.fadd(x, 5.0))
    return pb.finish()


def init_for(runtime_n):
    def init(name, index):
        if name == "nbox":
            return runtime_n
        return default_array_init(name, index)

    return init


def _guarded(compiled):
    for region in compiled.code.regions:
        if isinstance(region, GuardedRegion):
            return region
    return None


class TestTwoVersionScheme:
    def test_report_flags(self):
        compiled = compile_program(build_dynamic(), WARP)
        report = compiled.loops[0]
        assert report.pipelined
        assert report.two_version
        assert report.trip_count is None

    def test_guarded_region_structure(self):
        compiled = compile_program(build_dynamic(), WARP)
        region = _guarded(compiled)
        assert region is not None
        assert isinstance(region.trip, TripSpec)
        assert region.main and region.fallback
        # The peel and kernel pass counts are runtime expressions sharing
        # the same trip spec.
        report = compiled.loops[0]
        assert region.threshold == (report.stage_count - 1) + report.unroll

    @pytest.mark.parametrize(
        "runtime_n", [0, 1, 2, 4, 9, 10, 11, 12, 13, 20, 47, 99, 150]
    )
    def test_vadd_all_runtime_trips(self, runtime_n):
        compiled = compile_program(build_dynamic(), WARP)
        run_and_check(compiled.code, array_init=init_for(runtime_n))

    @pytest.mark.parametrize("runtime_n", [0, 1, 6, 7, 8, 30, 95])
    def test_accumulator_all_runtime_trips(self, runtime_n):
        compiled = compile_program(build_dynamic("acc"), WARP)
        run_and_check(compiled.code, array_init=init_for(runtime_n))

    @pytest.mark.parametrize("runtime_n", [0, 3, 25, 80])
    def test_conditional_all_runtime_trips(self, runtime_n):
        compiled = compile_program(build_dynamic("cond"), WARP)
        run_and_check(compiled.code, array_init=init_for(runtime_n))

    def test_large_n_actually_uses_pipelined_path(self):
        compiled = compile_program(build_dynamic(), WARP)
        fast = run_and_check(compiled.code, array_init=init_for(150))
        slow_policy = CompilerPolicy(pipeline=False)
        baseline = compile_program(build_dynamic(), WARP, slow_policy)
        assert not baseline.loops[0].pipelined
        slow = run_and_check(baseline.code, array_init=init_for(150))
        assert slow.cycles / fast.cycles > 2.0

    def test_code_size_within_four_unpipelined_loops(self):
        """Section 2.4's bound, counting the per-iteration body copies:
        the unrolled kernel holds u iteration bodies, prolog+epilog about
        one more pipeline's worth, plus the unpipelined copy."""
        compiled = compile_program(build_dynamic(), WARP)
        report = compiled.loops[0]
        per_body = report.unpipelined_length * (report.unroll + 2)
        assert report.total_size <= per_body + 3 * report.unpipelined_length


class TestPassExpressions:
    def test_peel_count(self):
        spec = TripSpec(Imm(0), Imm(46))  # n = 47
        peel = PeelCount(spec, started_in_prolog=5, unroll=7)
        assert peel.evaluate(lambda op: op.value) == (47 - 5) % 7

    def test_pipeline_passes(self):
        spec = TripSpec(Imm(0), Imm(46))
        passes = PipelinePasses(spec, started_in_prolog=5, unroll=7)
        assert passes.evaluate(lambda op: op.value) == (47 - 5) // 7

    def test_consistency_identity(self):
        """k + peel + passes*u == n for every n >= k."""
        for n in range(5, 60):
            spec = TripSpec(Imm(0), Imm(n - 1))
            read = lambda op: op.value
            peel = PeelCount(spec, 5, 7).evaluate(read)
            passes = PipelinePasses(spec, 5, 7).evaluate(read)
            assert 5 + peel + passes * 7 == n
