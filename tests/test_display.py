"""Schedule/code display utilities."""

from repro.core.compile import compile_program
from repro.core.display import (
    disassemble,
    format_instructions,
    format_kernel_schedule,
    format_modulo_table,
)
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph
from repro.ir import INT, ProgramBuilder
from repro.machine import WARP
from conftest import build_conditional, build_vadd


def _schedule():
    loop = build_vadd(100).inner_loops()[0]
    lg = build_reduced_loop_graph(loop, WARP)
    return ModuloScheduler(WARP).schedule(lg.graph).schedule


class TestScheduleViews:
    def test_kernel_schedule_lists_all_nodes(self):
        schedule = _schedule()
        text = format_kernel_schedule(schedule)
        assert f"ii={schedule.ii}" in text
        for node in schedule.graph.nodes:
            assert node.name in text

    def test_modulo_table_shows_capacity(self):
        schedule = _schedule()
        text = format_modulo_table(schedule)
        assert "mem" in text and "seq" in text
        assert len(text.splitlines()) == schedule.ii + 2

    def test_modulo_table_never_shows_overflow(self):
        schedule = _schedule()
        for line in format_modulo_table(schedule).splitlines()[2:]:
            for cell in line.split("|")[1].split():
                used, capacity = cell.split("/")
                assert int(used) <= int(capacity)


class TestDisassembly:
    def test_pipelined_sections_present(self):
        compiled = compile_program(build_vadd(100), WARP)
        text = disassemble(compiled.code)
        assert "prolog:" in text
        assert "kernel (steady state):" in text
        assert "epilog:" in text
        assert "cjump" in text

    def test_predicates_rendered(self):
        compiled = compile_program(build_conditional(64), WARP)
        text = disassemble(compiled.code)
        assert ":then]" in text or ":else]" in text
        assert "cbr" in text

    def test_two_version_sections(self):
        pb = ProgramBuilder("dyn")
        pb.array("a", 128)
        pb.array("nbox", 2, INT)
        n = pb.load("nbox", 0)
        with pb.loop("i", 0, n) as body:
            body.store("a", body.var, body.fadd(body.load("a", body.var), 1.0))
        compiled = compile_program(pb.finish(), WARP)
        text = disassemble(compiled.code)
        assert "two-version" in text
        assert "pipelined version:" in text
        assert "unpipelined version:" in text

    def test_every_instruction_listed(self):
        compiled = compile_program(build_vadd(40), WARP)
        text = disassemble(compiled.code)
        # Count listing lines with cycle numbers against the code size.
        listed = sum(
            1 for line in text.splitlines() if ": " in line and line.strip()
            and line.strip()[0].isdigit()
        )
        assert listed == compiled.code_size

    def test_format_instructions_empty(self):
        assert format_instructions([]) == []
