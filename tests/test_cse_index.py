"""CSE's indexed invalidation against the whole-table scan it replaced.

:mod:`repro.ir.cse` finds the value numbers a redefinition kills through a
per-table register index.  Its output must equal, statement for statement,
that of ``reference.reference_cse``, whose invalidation scans the whole
value table and substitution map, on three program sets, and on
hand-written nestings where a body redefines a register that an enclosing
list's value is built on.
"""

import pytest

from repro.audit.generate import random_program
from repro.frontend import parse_program
from repro.ir import Opcode, ProgramBuilder, run_program
from repro.ir.cse import eliminate_common_subexpressions
from repro.ir.scan import walk_operations
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

from reference import reference_cse


def _ninety_eight():
    return (
        [k.source for k in LIVERMORE_KERNELS.values()]
        + [p.source for p in USER_PROGRAMS.values()]
        + [p.source for p in generate_suite(1988, 72)]
    )


SETS = {
    "98 programs": _ninety_eight,
    "generate_suite(1, 288)": lambda: [
        p.source for p in generate_suite(1, 288)
    ],
    "fuzz": lambda: [p.source for p in map(random_program, range(200))],
}


@pytest.mark.parametrize("set_name", sorted(SETS))
def test_indexed_invalidation_matches_the_scan(set_name):
    sources = SETS[set_name]()
    removed = 0
    for source in sources:
        program, _ = parse_program(source)
        optimized = eliminate_common_subexpressions(program)
        assert optimized == reference_cse(program)
        removed += sum(1 for _ in walk_operations(program.body)) - sum(
            1 for _ in walk_operations(optimized.body)
        )
    # The sets exercise the pass: it removes operations from them.
    assert removed > 0


def _outer_value_redefined_in(construct):
    """``t1 = r + 2``; ``construct`` redefines ``r``; ``t2 = r + 2`` must
    then keep its own add, and later reads of it its own value."""
    pb = ProgramBuilder("nested")
    pb.array("out", 8)
    r = pb.mov(1)
    c = pb.mov(1)
    t1 = pb.add(r, 2)
    construct(pb, r, c)
    t2 = pb.add(r, 2)
    pb.store("out", 0, pb.i2f(t1))
    pb.store("out", 1, pb.i2f(t2))
    return pb.finish()


def _in_then_arm(pb, r, c):
    with pb.if_(c) as (then, _other):
        then.mov(10, dest=r)


def _in_else_arm(pb, r, c):
    with pb.if_(c) as (then, other):
        then.store("out", 2, 0.0)
        other.mov(10, dest=r)


def _in_loop_body(pb, r, c):
    with pb.loop("i", 0, 3) as body:
        body.add(r, 1, dest=r)


def _in_nested_arm(pb, r, c):
    # Two levels down: a loop body whose if arm redefines r, after the
    # body's own table has a value built on r.
    with pb.loop("i", 0, 3) as body:
        body.store("out", 3, body.i2f(body.add(r, 2)))
        with body.if_(c) as (then, _other):
            then.mov(10, dest=r)


@pytest.mark.parametrize(
    "construct",
    [_in_then_arm, _in_else_arm, _in_loop_body, _in_nested_arm],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_value_built_on_a_register_a_body_redefines(construct):
    program = _outer_value_redefined_in(construct)
    optimized = eliminate_common_subexpressions(program)
    assert optimized == reference_cse(program)
    # Both outer adds of r + 2 survive: the second reads the new r.
    outer_adds = [
        stmt for stmt in optimized.body
        if getattr(stmt, "opcode", None) is Opcode.ADD
    ]
    assert len(outer_adds) == 2
    assert run_program(optimized) == run_program(program)
