"""Cross-machine validation: the same programs compile correctly for very
different targets, and the initiation interval tracks the machine's
bottleneck the way the paper's bounds predict."""

import pytest

from repro.core.compile import CompilerPolicy, compile_program
from repro.machine import SIMPLE, WARP, OpClass, make_custom, make_warp
from repro.machine.resources import ReservationTable
from repro.simulator import run_and_check
from conftest import build_conditional, build_dot, build_vadd

MACHINES = {
    "warp": WARP,
    "simple": SIMPLE,
    "fast-clock": make_warp(clock_mhz=20.0),
    "short-pipes": make_warp(fp_latency=2, load_latency=1),
    "dual-ported-memory": make_custom(
        "dual-mem", {"fadd": 1, "fmul": 1, "alu": 1, "mem": 2, "seq": 1},
        fadd_latency=7, fmul_latency=7, load_latency=4, num_registers=128,
    ),
    "superwide": make_custom(
        "superwide", {"fadd": 4, "fmul": 4, "alu": 4, "mem": 4, "seq": 1},
        fadd_latency=5, fmul_latency=5, load_latency=3, num_registers=256,
    ),
    "single-unit": make_custom(
        "single", {"fadd": 1, "fmul": 1, "alu": 1, "mem": 1, "seq": 1},
        fadd_latency=12, fmul_latency=12, load_latency=8, num_registers=128,
    ),
    # No 'seq' unit: every branch op, the loop-back cjump included, runs
    # on 'br'.
    "branch-unit": make_custom(
        "branch-unit", {"fadd": 1, "fmul": 1, "alu": 1, "mem": 1, "br": 1},
        {
            name: OpClass(name, 1, ReservationTable.single("br"))
            for name in ("cjump", "jump", "cbr")
        },
    ),
}

PROGRAMS = {
    "vadd": lambda: build_vadd(60),
    "dot": lambda: build_dot(60),
    "conditional": lambda: build_conditional(60),
}


@pytest.mark.parametrize("machine_name", sorted(MACHINES))
@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_every_program_on_every_machine(machine_name, program_name):
    machine = MACHINES[machine_name]
    compiled = compile_program(PROGRAMS[program_name](), machine)
    run_and_check(compiled.code)


@pytest.mark.parametrize("program_name", sorted(PROGRAMS))
def test_branch_unit_machine_under_exact_backend(program_name):
    compiled = compile_program(
        PROGRAMS[program_name](), MACHINES["branch-unit"],
        CompilerPolicy(scheduler_backend="exact"),
    )
    assert compiled.loops[0].pipelined
    run_and_check(compiled.code)


class TestBoundsTrackTheMachine:
    def test_memory_ports_set_vadd_ii(self):
        single = compile_program(build_vadd(60), WARP)
        dual = compile_program(build_vadd(60), MACHINES["dual-ported-memory"])
        assert single.loops[0].ii == 2      # load + store on one port
        assert dual.loops[0].ii == 1        # two ports: one iteration/cycle

    def test_fp_latency_sets_dot_ii(self):
        deep = compile_program(build_dot(60), WARP)
        shallow = compile_program(build_dot(60), MACHINES["short-pipes"])
        assert deep.loops[0].recurrence_mii == 7
        assert shallow.loops[0].recurrence_mii == 2
        assert shallow.loops[0].ii < deep.loops[0].ii

    def test_clock_scales_mflops_not_cycles(self):
        slow = compile_program(build_vadd(60), WARP)
        fast = compile_program(build_vadd(60), MACHINES["fast-clock"])
        slow_stats = run_and_check(slow.code)
        fast_stats = run_and_check(fast.code)
        assert slow_stats.cycles == fast_stats.cycles
        assert fast_stats.mflops == pytest.approx(4 * slow_stats.mflops)

    def test_width_cannot_beat_recurrence(self):
        """Section 6: 'the speed of all other loops are limited by the
        cycle length in their precedence constraint graph'."""
        wide = compile_program(build_dot(60), MACHINES["superwide"])
        report = wide.loops[0]
        assert report.ii >= report.recurrence_mii == 5
