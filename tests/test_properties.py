"""Property-based tests (hypothesis) on the core invariants.

* any modulo schedule the pipeliner produces satisfies every precedence
  constraint and never oversubscribes the modulo reservation table;
* the achieved initiation interval is never below the computed bound;
* compiled code computes exactly what the sequential interpreter computes,
  for randomly generated loop bodies, trip counts and machines;
* modulo variable expansion always allocates enough copies for every live
  range, with copy counts dividing the unroll factor.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import HealthCheck, given, settings

from repro.audit.oracle import audit_modulo_resources, audit_precedence
from repro.core.compile import CompilerPolicy, compile_program
from repro.core.mve import plan_expansion
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph
from repro.core.schedule import SchedulingFailure
from repro.ir import FLOAT, ProgramBuilder
from repro.machine import SIMPLE, WARP, make_simple, make_warp
from repro.simulator import run_and_check

MACHINES = [WARP, SIMPLE, make_warp(fp_latency=3, load_latency=2)]

_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def loop_programs(draw):
    """A random single-loop program over two arrays."""
    trip = draw(st.integers(min_value=1, max_value=40))
    n_stmts = draw(st.integers(min_value=1, max_value=5))
    use_accumulator = draw(st.booleans())
    use_conditional = draw(st.booleans())
    offsets = st.integers(min_value=-2, max_value=2)

    pb = ProgramBuilder("random")
    pb.array("a", 64)
    pb.array("b", 64)
    pb.array("out", 8)
    acc = pb.fmov(0.0) if use_accumulator else None
    ops = ["fadd", "fmul", "fsub"]
    with pb.loop("i", 2, trip + 1) as body:
        values = []
        for _ in range(n_stmts):
            src = draw(st.sampled_from(["a", "b"]))
            x = body.load(src, body.var, offset=draw(offsets))
            values.append(x)
        combined = values[0]
        for value in values[1:]:
            opcode = draw(st.sampled_from(ops))
            combined = getattr(body, opcode)(combined, value)
        if use_conditional:
            cond = body.fgt(combined, 0.0)
            with body.if_(cond) as (then, other):
                then.store("b", then.var, then.fmul(combined, 2.0))
                other.store("b", other.var, other.fadd(combined, 1.0))
        else:
            body.store("b", body.var, combined)
        if acc is not None:
            body.fadd(acc, combined, dest=acc)
    if acc is not None:
        pb.store("out", 0, acc)
    return pb.finish()


@given(program=loop_programs(), machine=st.sampled_from(MACHINES))
@_settings
def test_compiled_code_matches_interpreter(program, machine):
    compiled = compile_program(program, machine)
    run_and_check(compiled.code)


@given(program=loop_programs(), machine=st.sampled_from(MACHINES))
@_settings
def test_baseline_matches_interpreter(program, machine):
    compiled = compile_program(
        program, machine, CompilerPolicy(pipeline=False)
    )
    run_and_check(compiled.code)


@given(program=loop_programs(), machine=st.sampled_from(MACHINES))
@_settings
def test_schedules_satisfy_all_constraints(program, machine):
    loop = program.inner_loops()[0]
    lg = build_reduced_loop_graph(loop, machine)
    try:
        result = ModuloScheduler(machine).schedule(lg.graph)
    except SchedulingFailure:
        return
    schedule = result.schedule
    assert audit_modulo_resources(schedule) == []
    assert audit_precedence(schedule) == []
    assert schedule.ii >= schedule.mii.mii


@given(program=loop_programs(), machine=st.sampled_from(MACHINES))
@_settings
def test_mve_invariants(program, machine):
    loop = program.inner_loops()[0]
    lg = build_reduced_loop_graph(loop, machine)
    try:
        result = ModuloScheduler(machine).schedule(lg.graph)
    except SchedulingFailure:
        return
    schedule = result.schedule
    plan = plan_expansion(schedule, lg.options.expanded_regs)
    s = schedule.ii
    for reg, copies in plan.copies.items():
        assert plan.unroll % copies == 0
        assert copies >= plan.q[reg]
    # Re-derive the lifetime requirement and confirm coverage: the next
    # write into the same location must land strictly after the last read.
    defs = {}
    for node in schedule.graph.nodes:
        for info in node.defs:
            if info.reg in plan.expanded:
                defs[info.reg] = (node, info)
    for node in schedule.graph.nodes:
        for use in node.uses:
            if use.reg not in plan.expanded:
                continue
            def_node, info = defs[use.reg]
            omega = plan.use_omega[(node.index, use.reg)]
            read = schedule.times[node.index] + use.read_offset + omega * s
            write = schedule.times[def_node.index] + info.write_latency
            copies = plan.copies[use.reg]
            assert write + copies * s > read


@given(
    trip=st.integers(min_value=1, max_value=60),
    fp_latency=st.integers(min_value=1, max_value=9),
)
@_settings
def test_vadd_correct_for_all_trips_and_latencies(trip, fp_latency):
    machine = make_warp(fp_latency=fp_latency)
    pb = ProgramBuilder("vadd")
    pb.array("a", 80)
    with pb.loop("i", 0, trip - 1) as body:
        body.store("a", body.var, body.fadd(body.load("a", body.var), 1.5))
    compiled = compile_program(pb.finish(), machine)
    run_and_check(compiled.code)


@given(
    program=loop_programs(),
    factor=st.integers(min_value=2, max_value=6),
)
@_settings
def test_source_unrolling_preserves_semantics(program, factor):
    from repro.baselines import unroll_program
    from repro.ir import run_program
    from repro.simulator import memory_diffs

    unrolled = unroll_program(program, factor)
    # NaN-aware comparison: both versions computing the same NaN agree.
    assert memory_diffs(run_program(unrolled), run_program(program)) == []


@given(
    trip=st.integers(min_value=1, max_value=50),
    distance=st.integers(min_value=1, max_value=4),
)
@_settings
def test_carried_memory_recurrences_stay_correct(trip, distance):
    """a[i] := a[i-d] * c + 1 must respect the distance-d dependence."""
    pb = ProgramBuilder("rec")
    pb.array("a", 80)
    with pb.loop("i", distance, distance + trip - 1) as body:
        x = body.load("a", body.var, offset=-distance)
        body.store("a", body.var, body.fadd(body.fmul(x, 0.5), 1.0))
    compiled = compile_program(pb.finish(), WARP)
    run_and_check(compiled.code)
