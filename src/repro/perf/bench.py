"""The scheduler microbenchmark suite.

Five benchmarks, all seeded and deterministic in the work they measure:

``closure``
    The symbolic closure's direct recurrence bound over a corpus of random
    strongly connected components (the tier-1 tests hold it equal to a
    numeric reference on the same corpus).
``scheduler``
    End-to-end modulo scheduling of random dependence graphs, each
    scheduled once: wall time, the observability layer's counter deltas
    (II attempts, SCC schedules, backtracks), and achieved-II-versus-MII
    gaps.
``optimality``
    The optimality-gap audit: every scheduler-benchmark graph through the
    heuristic *and* the exact SAT backend, reporting how often the
    heuristic attains the proven minimum II (the ``optimality_gap``
    block), plus declines confirmed infeasible versus missed schedules.
``suite``
    Serial batch compilation of the synthetic 72-loop suite through
    ``compile_many`` — the closest thing to the paper's workload.  A
    second, untimed pass with per-program stats reports where the time
    goes: per-unit seconds of every compile phase (``phases``, not
    gated, since the observers add their own overhead).  A third pass,
    after a warm-up, counts Python calls under ``sys.setprofile`` over a
    fixed set of programs (``kcalls_per_program``); the count is exact,
    so it is gated tightly.
``loadgen``
    The compile service end to end: a real server on a unix socket under
    concurrent clients, reporting p50/p99 request latency, throughput,
    and the shared-cache hit rate (see :mod:`repro.perf.loadgen`).

Every benchmark reports ``per_unit_seconds`` — wall time divided by the
number of units processed.  :func:`compare_reports` flags a benchmark
whose per-unit time exceeds twice the baseline's (plus a small absolute
floor to ignore microsecond-scale jitter), and a call count above
``CALL_REGRESSION_FACTOR`` times the baseline's when both reports come
from the same Python minor version (call counts differ between
interpreter versions).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.audit.generate import GraphConfig, random_dep_graph
from repro.batch.driver import compile_many
from repro.core.pipeliner import ModuloScheduler
from repro.core.schedule import SchedulingFailure
from repro.deps.paths import SymbolicPaths
from repro.machine import WARP
from repro.obs import trace as obs
from repro.workloads import generate_suite

#: Bumped when the report schema changes incompatibly.
REPORT_VERSION = 1

#: Per-unit slack added to the 2x regression threshold so that
#: microsecond-scale benchmarks do not trip on scheduler jitter.
ABSOLUTE_FLOOR_SECONDS = 1e-4

REGRESSION_FACTOR = 2.0

#: A call count is free of timing noise, so its bound is tight.
CALL_REGRESSION_FACTOR = 1.02

#: The suite programs whose calls ``bench suite`` counts: the same set in
#: quick and full runs, so either compares against either baseline.
CALL_COUNT_PROGRAMS = 18


def python_version() -> str:
    """``major.minor`` of the running interpreter."""
    return f"{sys.version_info[0]}.{sys.version_info[1]}"


@dataclass
class BenchReport:
    """One run of the benchmark suite."""

    quick: bool
    jobs: int
    cpu_count: int
    benchmarks: dict[str, dict[str, Any]] = field(default_factory=dict)
    python: str = field(default_factory=python_version)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "quick": self.quick,
            "jobs": self.jobs,
            "cpu_count": self.cpu_count,
            "python": self.python,
            "benchmarks": self.benchmarks,
        }

    def summary(self) -> str:
        lines = [
            f"bench ({'quick' if self.quick else 'full'},"
            f" {self.cpu_count} cpus)"
        ]
        closure = self.benchmarks.get("closure")
        if closure:
            lines.append(
                f"  closure: {closure['units']} SCCs in"
                f" {closure['wall_seconds'] * 1e3:.1f} ms"
                f" ({closure['per_unit_seconds'] * 1e6:.1f} us/SCC)"
            )
        sched = self.benchmarks.get("scheduler")
        if sched:
            gaps = sched["ii_gaps"]
            lines.append(
                f"  scheduler: {sched['units']} graphs in"
                f" {sched['wall_seconds'] * 1e3:.1f} ms,"
                f" {gaps['at_mii_fraction']:.0%} at MII"
                f" (mean gap {gaps['mean_gap']:.2f})"
            )
        optimality = self.benchmarks.get("optimality")
        if optimality:
            gap = optimality["optimality_gap"]
            lines.append(
                f"  optimality: {optimality['units']} graphs,"
                f" optimality_gap {gap['at_optimum_fraction']:.0%} at proven"
                f" minimum (mean gap {gap['mean_gap']:.2f},"
                f" max {gap['max_gap']},"
                f" {gap['decline_missed']} declines missed,"
                f" {optimality['violations']} violations)"
            )
        suite = self.benchmarks.get("suite")
        if suite:
            lines.append(
                f"  suite: {suite['units']} programs in"
                f" {suite['wall_seconds'] * 1e3:.1f} ms"
                f" ({suite['per_unit_seconds'] * 1e3:.1f} ms/program"
                + (f", {suite['kcalls_per_program']:.3f} kcalls/program"
                   if "kcalls_per_program" in suite else "")
                + ")"
            )
            phases = sorted(suite.get("phases", {}).items(),
                            key=lambda item: -item[1])
            if phases:
                lines.append("    phases (ms/program): " + ", ".join(
                    f"{name} {seconds * 1e3:.2f}" for name, seconds in phases
                ))
        loadgen = self.benchmarks.get("loadgen")
        if loadgen:
            lines.append(
                f"  loadgen: {loadgen['clients']} clients x"
                f" {loadgen['requests_per_client']} requests:"
                f" p50 {loadgen['p50_seconds'] * 1e3:.1f} ms,"
                f" p99 {loadgen['p99_seconds'] * 1e3:.1f} ms"
                f" (cold p50 {loadgen.get('cold_p50_seconds', 0) * 1e3:.1f} ms,"
                f" p99 {loadgen.get('cold_p99_seconds', 0) * 1e3:.1f} ms"
                f" over {loadgen.get('cold_requests', 0)}),"
                f" {loadgen['throughput_rps']:.0f} req/s,"
                f" cache {loadgen['cache_hit_rate']:.0%},"
                f" {loadgen['failures']} failures"
            )
        return "\n".join(lines)


# -- individual benchmarks -----------------------------------------------------

#: Denser than the fuzzing default so most graphs contain nontrivial
#: strongly connected components to exercise the closure.
_CLOSURE_CONFIG = GraphConfig(min_nodes=5, max_nodes=12, scc_density=0.5)


def _scc_corpus(seed: int, graphs: int) -> list[tuple[list, list]]:
    """(component, internal edges) pairs from seeded random graphs,
    restricted to components that can carry a recurrence: the closures
    :meth:`ModuloScheduler.prepare` builds."""
    scheduler = ModuloScheduler(WARP)
    return [
        (paths.nodes, paths.edges)
        for i in range(graphs)
        for paths in scheduler.prepare(
            random_dep_graph(seed + i, WARP, _CLOSURE_CONFIG)
        ).paths
        if paths is not None
    ]


def bench_closure(seed: int, graphs: int) -> dict[str, Any]:
    """The symbolic closure's recurrence bound, per component."""
    corpus = _scc_corpus(seed, graphs)

    t0 = time.perf_counter()
    for component, edges in corpus:
        SymbolicPaths(component, edges).recurrence_bound
    wall = time.perf_counter() - t0

    return {
        "units": len(corpus),
        "wall_seconds": round(wall, 6),
        "per_unit_seconds": round(wall / max(1, len(corpus)), 9),
    }


#: Scheduler-bench graphs: the fuzzing default, slightly larger.
_SCHED_CONFIG = GraphConfig(min_nodes=4, max_nodes=10, scc_density=0.35)

#: Observability counters worth tracking across sessions.
_SCHED_COUNTERS = (
    "ii_attempts",
    "sccs",
    "scc_schedules",
    "backtracks",
)

def bench_scheduler(seed: int, graphs: int) -> dict[str, Any]:
    """End-to-end modulo scheduling: wall time, counters, II gaps.

    Each graph is scheduled once on one shared :class:`ModuloScheduler`;
    a unit is one schedule.
    """
    inputs = [
        random_dep_graph(seed + i, WARP, _SCHED_CONFIG)
        for i in range(graphs)
    ]
    scheduler = ModuloScheduler(WARP)
    counters = {name: 0 for name in _SCHED_COUNTERS}
    gaps: list[int] = []
    declines = 0

    t0 = time.perf_counter()
    for graph in inputs:
        with obs.observe() as observer:
            try:
                result = scheduler.schedule(graph)
            except SchedulingFailure:
                declines += 1
            else:
                gaps.append(result.schedule.ii - result.schedule.mii.mii)
        for name in _SCHED_COUNTERS:
            counters[name] += observer.counters.get(name, 0)
    wall = time.perf_counter() - t0

    return {
        "units": graphs,
        "wall_seconds": round(wall, 6),
        "per_unit_seconds": round(wall / max(1, graphs), 9),
        "scheduled": len(gaps),
        "declines": declines,
        "counters": counters,
        "ii_gaps": {
            "at_mii_fraction": round(
                sum(1 for g in gaps if g == 0) / max(1, len(gaps)), 4
            ),
            "mean_gap": round(sum(gaps) / max(1, len(gaps)), 4),
            "max_gap": max(gaps, default=0),
        },
    }


def bench_optimality(seed: int, graphs: int) -> dict[str, Any]:
    """The optimality-gap audit over the scheduler benchmark's corpus.

    Every graph goes through :func:`repro.audit.optimality.audit_optimality`
    (heuristic vs. the exact SAT backend); the emitted ``optimality_gap``
    block quantifies how far the heuristic sits from the proven minima —
    the committed baseline's ``ii_gaps`` measured against ground truth
    instead of against MII.
    """
    from repro.audit.optimality import CLASSIFICATIONS, audit_optimality

    inputs = [
        random_dep_graph(seed + i, WARP, _SCHED_CONFIG)
        for i in range(graphs)
    ]
    classes = {name: 0 for name in CLASSIFICATIONS}
    gaps: list[int] = []
    violations = 0

    t0 = time.perf_counter()
    for graph in inputs:
        with obs.observe():
            report = audit_optimality(graph, WARP)
        classes[report.classification] += 1
        if report.gap:
            gaps.append(report.gap)
        violations += len(report.violations)
    wall = time.perf_counter() - t0

    compared = classes["optimal"] + classes["gap"]
    return {
        "units": graphs,
        "wall_seconds": round(wall, 6),
        "per_unit_seconds": round(wall / max(1, graphs), 9),
        "violations": violations,
        "optimality_gap": {
            "checked": graphs - classes["budget"],
            **classes,
            "at_optimum_fraction": round(
                classes["optimal"] / max(1, compared), 4
            ),
            "mean_gap": round(sum(gaps) / max(1, compared), 4),
            "max_gap": max(gaps, default=0),
        },
    }


def count_calls(programs: Sequence) -> Optional[int]:
    """Python calls (``call`` and ``c_call`` profile events) made while
    compiling ``programs`` once, serially, or ``None`` when a profiler is
    already installed (``bench --profile``).

    An uncounted pass comes first, so first-use imports and set-up happen
    outside the count, and collecting garbage then puts the collector's
    passes at the same points of every count.
    """
    if sys.getprofile() is not None:
        return None
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    compile_many(programs, WARP, jobs=1)
    gc.collect()
    sys.setprofile(profile)
    try:
        compile_many(programs, WARP, jobs=1)
    finally:
        sys.setprofile(None)
    return calls


def bench_suite(count: int) -> dict[str, Any]:
    """Serial batch compilation of the synthetic suite (no cache, so the
    measured work is the compiler, not the pickle layer)."""
    suite = generate_suite()
    programs = suite[:count]
    report = compile_many(programs, WARP, jobs=1)
    units = max(1, len(report.results))
    observed = compile_many(programs, WARP, jobs=1, collect_stats=True)
    entry = {
        "units": len(report.results),
        "wall_seconds": round(report.wall_seconds, 6),
        "per_unit_seconds": round(report.wall_seconds / units, 9),
        "errors": len(report.errors),
        "phases": {
            name: round(phase["seconds"] / units, 9)
            for name, phase in observed.to_dict().get("phases", {}).items()
        },
    }
    counted = suite[:CALL_COUNT_PROGRAMS]
    calls = count_calls(counted)
    if calls is not None:
        entry["kcalls_per_program"] = round(calls / len(counted) / 1e3, 3)
    return entry


def bench_loadgen(*, quick: bool, jobs: int) -> dict[str, Any]:
    """The end-to-end service benchmark (see :mod:`repro.perf.loadgen`)."""
    from repro.perf.loadgen import run_loadgen

    clients, requests = (3, 6) if quick else (8, 24)
    return run_loadgen(clients=clients, requests=requests, jobs=jobs)


# -- the suite -----------------------------------------------------------------


#: Every benchmark the suite knows, in run order.
BENCHMARK_NAMES = (
    "closure", "scheduler", "optimality", "suite", "loadgen",
)


def run_benchmarks(
    *,
    quick: bool = False,
    jobs: int = 4,
    seed: int = 2024,
    only: Optional[Sequence[str]] = None,
) -> BenchReport:
    """Run the benchmark suite; ``quick`` shrinks the corpora for CI and
    ``only`` restricts to a named subset (e.g. ``("loadgen",)``)."""
    if only:
        unknown = sorted(set(only) - set(BENCHMARK_NAMES))
        if unknown:
            raise ValueError(
                f"unknown benchmark(s): {', '.join(unknown)};"
                f" expected a subset of {BENCHMARK_NAMES}"
            )
    selected = tuple(only) if only else BENCHMARK_NAMES
    report = BenchReport(
        quick=quick, jobs=jobs, cpu_count=os.cpu_count() or 1
    )
    closure_graphs = 80 if quick else 400
    sched_graphs = 40 if quick else 200
    suite_count = 18 if quick else 72
    opt_graphs = 20 if quick else 200

    if "closure" in selected:
        report.benchmarks["closure"] = bench_closure(seed, closure_graphs)
    if "scheduler" in selected:
        report.benchmarks["scheduler"] = bench_scheduler(seed, sched_graphs)
    if "optimality" in selected:
        report.benchmarks["optimality"] = bench_optimality(seed, opt_graphs)
    if "suite" in selected:
        report.benchmarks["suite"] = bench_suite(suite_count)
    if "loadgen" in selected:
        report.benchmarks["loadgen"] = bench_loadgen(quick=quick, jobs=jobs)
    return report


# -- persistence and comparison ------------------------------------------------


def write_report(report: BenchReport, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_report(path: str) -> dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def compare_reports(
    baseline_path: str, current: BenchReport
) -> list[str]:
    """Regression lines, one per benchmark whose per-unit time exceeds
    ``REGRESSION_FACTOR`` times the baseline's (plus the absolute floor),
    and one per call count above ``CALL_REGRESSION_FACTOR`` times the
    baseline's.

    Only benchmarks reporting ``per_unit_seconds`` participate in the
    time check.  Per-unit times are compared (rather than wall times) so a
    ``--quick`` run remains comparable against a full-size committed
    baseline.  Call counts are compared only when both reports record the
    same Python minor version.
    """
    baseline = load_report(baseline_path)
    same_python = baseline.get("python") == current.python
    regressions: list[str] = []
    for name, entry in current.benchmarks.items():
        per_unit: Optional[float] = entry.get("per_unit_seconds")
        base_entry = baseline.get("benchmarks", {}).get(name, {})
        base_per_unit: Optional[float] = base_entry.get("per_unit_seconds")
        if per_unit is not None and base_per_unit is not None:
            limit = REGRESSION_FACTOR * base_per_unit + ABSOLUTE_FLOOR_SECONDS
            if per_unit > limit:
                regressions.append(
                    f"{name}: {per_unit * 1e3:.3f} ms/unit vs baseline"
                    f" {base_per_unit * 1e3:.3f} ms/unit"
                    f" (limit {limit * 1e3:.3f} ms/unit)"
                )
        kcalls: Optional[float] = entry.get("kcalls_per_program")
        base_kcalls: Optional[float] = base_entry.get("kcalls_per_program")
        if same_python and kcalls is not None and base_kcalls is not None:
            limit = CALL_REGRESSION_FACTOR * base_kcalls
            if kcalls > limit:
                regressions.append(
                    f"{name}: {kcalls:.3f} kcalls/program vs baseline"
                    f" {base_kcalls:.3f} (limit {limit:.3f})"
                )
    return regressions
