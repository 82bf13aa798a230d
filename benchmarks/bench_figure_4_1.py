"""E2 — Figure 4-1: MFLOPS distribution of the 72-program sample.

The paper plots whole-array MFLOPS of 72 user programs.  We run the
deterministic synthetic suite (DESIGN.md's stand-in for the proprietary
sample) and render the same kind of distribution.  Compilation goes
through the parallel batch driver (``repro.batch.compile_many``); the
cycle-accurate simulations stay serial.
"""

from harness import BATCH_JOBS, report_table, suite_slice, text_histogram

from repro import WARP, compile_many
from repro.machine.warp import WARP_ARRAY_CELLS
from repro.simulator import run_and_check


def _run_suite():
    programs = suite_slice()
    batch = compile_many(programs, WARP, jobs=BATCH_JOBS)
    assert not batch.errors, [str(e) for e in batch.errors]
    results = []
    for program, result in zip(programs, batch):
        stats = run_and_check(result.compiled.code)
        results.append((program, result.compiled, stats))
    return results, batch


def test_figure_4_1(benchmark):
    results, batch = benchmark.pedantic(_run_suite, rounds=1, iterations=1)
    array_mflops = [
        stats.mflops * WARP_ARRAY_CELLS for _, _, stats in results
    ]
    lines = text_histogram(array_mflops, bucket_width=5.0, unit="MFLOPS")
    lines.append("")
    lines.append(f"programs: {len(results)} (paper: 72)")
    lines.append(
        f"median array MFLOPS: {sorted(array_mflops)[len(array_mflops)//2]:.1f}"
    )
    # No wall time: this file is committed, and must not move by host.
    lines.append(
        f"batch compile: {len(batch.ok_results)}/{len(batch.results)}"
        f" programs compiled, jobs={batch.jobs},"
        f" {len(batch.errors)} errors"
    )
    assert len(results) == len(suite_slice())
    assert all(m >= 0 for m in array_mflops)
    if len(results) == 72:
        # A spread, not a spike: programs differ in available parallelism.
        assert max(array_mflops) > 4 * (min(array_mflops) + 1e-9)
    report_table(
        "E2_figure_4_1",
        "E2: Figure 4-1 — array MFLOPS over the"
        f" {len(results)}-program suite",
        lines,
    )
