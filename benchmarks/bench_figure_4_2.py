"""E3 — Figure 4-2: speedup over locally compacted code.

The paper compares the full compiler (software pipelining + hierarchical
reduction) against compacting individual basic blocks only, over the same
72-program sample: "The average factor of increase in speed is three" and
"programs containing conditional statements are sped up more" (the
conditionals break the computation into small basic blocks, making motion
across them matter more).  Both compilations run through the parallel
batch driver.
"""

import statistics

from harness import BATCH_JOBS, report_table, suite_slice, text_histogram

from repro import CompilerPolicy, WARP, compile_many
from repro.simulator import run_and_check


def _run_suite():
    programs = suite_slice()
    fast_batch = compile_many(programs, WARP, jobs=BATCH_JOBS)
    slow_batch = compile_many(
        programs, WARP, CompilerPolicy(pipeline=False), jobs=BATCH_JOBS
    )
    assert not fast_batch.errors and not slow_batch.errors
    results = []
    for program, fast_result, slow_result in zip(
        programs, fast_batch, slow_batch
    ):
        fast = run_and_check(fast_result.compiled.code)
        slow = run_and_check(slow_result.compiled.code)
        results.append((program, slow.cycles / fast.cycles))
    return results


def test_figure_4_2(benchmark):
    results = benchmark.pedantic(_run_suite, rounds=1, iterations=1)
    speedups = [speedup for _, speedup in results]
    with_cond = [s for p, s in results if p.has_conditionals]
    without_cond = [s for p, s in results if not p.has_conditionals]

    lines = text_histogram(speedups, bucket_width=0.5, unit="x")
    lines.append("")
    lines.append(
        f"mean speedup: {statistics.mean(speedups):.2f}x (paper: ~3x)"
    )
    if with_cond:
        lines.append(
            f"mean, programs with conditionals   :"
            f" {statistics.mean(with_cond):.2f}x"
        )
    if without_cond:
        lines.append(
            f"mean, programs without conditionals:"
            f" {statistics.mean(without_cond):.2f}x"
        )
    lines.append(
        "(paper: conditional programs are sped up more)"
    )

    assert all(s >= 0.95 for s in speedups), "pipelining must never hurt"
    if len(results) == 72:
        assert statistics.mean(speedups) > 1.8
    report_table(
        "E3_figure_4_2",
        "E3: Figure 4-2 — speedup over locally compacted code"
        f" ({len(results)} programs)",
        lines,
    )
