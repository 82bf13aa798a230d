"""``LoopReport.has_recurrence`` read off the scheduler's prepared graph.

The compiler takes a loop's recurrence flag from the SCC condensation the
scheduler backend already prepared, instead of running its own Tarjan
pass.  Checked against that separate pass (``tests/reference.py``) on every
scheduled loop of the 98 programs, the 19 Livermore kernels, the 7 Table
4-1 programs and the 72-program suite, under both backends; a loop no
backend scheduled reports ``None``, as its ``mii`` does.
"""

import pytest

from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.core.reduction import build_reduced_loop_graph, fresh_uid_scope
from repro.deps.build import DependenceOptions
from repro.machine import WARP
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

from reference import has_nontrivial_recurrence

PROGRAMS = (
    [(f"livermore{k.number}", k.source) for k in LIVERMORE_KERNELS.values()]
    + [(p.name, p.source) for p in USER_PROGRAMS.values()]
    + [(p.name, p.source) for p in generate_suite()]
)

POLICIES = {
    "heuristic": CompilerPolicy(),
    "exact": CompilerPolicy(scheduler_backend="exact"),
}


def _reference_flags(compiled):
    """The separate Tarjan pass on each innermost loop's graph."""
    options = DependenceOptions(
        independent_arrays=compiled.policy.independent_arrays
    )
    flags = []
    for loop in compiled.program.inner_loops():
        with fresh_uid_scope():
            lg = build_reduced_loop_graph(
                loop, WARP, options,
                serialize_ifs=compiled.policy.serialize_ifs,
            )
        flags.append(has_nontrivial_recurrence(lg))
    return flags


@pytest.mark.parametrize("backend", sorted(POLICIES))
@pytest.mark.parametrize(
    "name,source", PROGRAMS, ids=[name for name, _ in PROGRAMS]
)
def test_scheduled_loops_match_the_reference(name, source, backend):
    result = compile_one(name, source, WARP, POLICIES[backend])
    assert result.ok, result.error
    compiled = result.compiled
    expected = _reference_flags(compiled)
    assert len(expected) == len(compiled.loops)
    for report, flag in zip(compiled.loops, expected):
        if report.mii is None:
            # The backend declined, or the body was too long to try.
            assert report.has_recurrence is None, report.label
        else:
            assert report.has_recurrence is flag, report.label


def test_unscheduled_loops_report_none():
    policy = CompilerPolicy(pipeline=False)
    for name, source in PROGRAMS:
        result = compile_one(name, source, WARP, policy)
        assert result.ok, result.error
        for report in result.compiled.loops:
            assert report.reason == "pipelining disabled"
            assert report.mii is None and report.has_recurrence is None


def test_both_flag_values_occur():
    """The comparison above sees recurrent and recurrence-free loops."""
    seen = set()
    for name, source in PROGRAMS:
        result = compile_one(name, source, WARP, POLICIES["heuristic"])
        seen.update(report.has_recurrence for report in result.compiled.loops)
    assert {True, False} <= seen
