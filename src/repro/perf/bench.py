"""The scheduler microbenchmark suite.

Five benchmarks, all seeded and deterministic in the work they measure:

``closure``
    The symbolic closure's direct recurrence bound over a corpus of random
    strongly connected components (the tier-1 tests hold it equal to a
    numeric reference on the same corpus).
``scheduler``
    End-to-end modulo scheduling of random dependence graphs, each
    scheduled once: wall time, the observability layer's counter deltas
    (II attempts, SCC schedules, backtracks, MRT bitmask fast path), and
    achieved-II-versus-MII gaps.
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
    gated, since the observers add their own overhead).
``backends``
    The service workload — a stream of small compile batches — through
    the process backend with per-call pools (the old arrangement: one
    ``ProcessPoolExecutor`` spawned and torn down per ``run_many``)
    versus one persistent chunk-submitting
    :class:`~repro.batch.pool.WorkerPool`.  ``process_speedup`` is the
    ratio of the two: what keeping workers warm and amortising submission
    buys the process backend.  A persistent thread pool runs the same
    stream for context (``thread_seconds``); raw thread-vs-process wall
    time remains a property of the core count (``cpu_count``).
``loadgen``
    The compile service end to end: a real server on a unix socket under
    concurrent clients, reporting p50/p99 request latency, throughput,
    and the shared-cache hit rate (see :mod:`repro.perf.loadgen`).

Every benchmark reports ``per_unit_seconds`` — wall time divided by the
number of units processed — except ``backends``, whose speedup is
machine-dependent and therefore excluded from regression comparison.
:func:`compare_reports` flags a benchmark whose per-unit time exceeds
twice the baseline's (plus a small absolute floor to ignore
microsecond-scale jitter).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.audit.generate import GraphConfig, random_dep_graph
from repro.batch.driver import compile_many
from repro.batch.pool import WorkerPool
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


@dataclass
class BenchReport:
    """One run of the benchmark suite."""

    quick: bool
    jobs: int
    cpu_count: int
    benchmarks: dict[str, dict[str, Any]] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "quick": self.quick,
            "jobs": self.jobs,
            "cpu_count": self.cpu_count,
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
                f" ({suite['per_unit_seconds'] * 1e3:.1f} ms/program)"
            )
            phases = sorted(suite.get("phases", {}).items(),
                            key=lambda item: -item[1])
            if phases:
                lines.append("    phases (ms/program): " + ", ".join(
                    f"{name} {seconds * 1e3:.2f}" for name, seconds in phases
                ))
        backends = self.benchmarks.get("backends")
        if backends:
            lines.append(
                f"  backends: {backends['batches']} batches x"
                f" {backends['batch_size']} programs at"
                f" jobs={backends['jobs']}: process per-call pools"
                f" {backends['process_percall_seconds'] * 1e3:.0f} ms vs"
                f" persistent {backends['process_seconds'] * 1e3:.0f} ms"
                f" ({backends['process_speedup']:.2f}x from the warm pool;"
                f" thread {backends['thread_seconds'] * 1e3:.0f} ms)"
            )
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
    "mrt_bitmask_fast_path",
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


def bench_suite(count: int) -> dict[str, Any]:
    """Serial batch compilation of the synthetic suite (no cache, so the
    measured work is the compiler, not the pickle layer)."""
    programs = generate_suite()[:count]
    report = compile_many(programs, WARP, jobs=1)
    units = max(1, len(report.results))
    observed = compile_many(programs, WARP, jobs=1, collect_stats=True)
    return {
        "units": len(report.results),
        "wall_seconds": round(report.wall_seconds, 6),
        "per_unit_seconds": round(report.wall_seconds / units, 9),
        "errors": len(report.errors),
        "phases": {
            name: round(phase["seconds"] / units, 9)
            for name, phase in observed.to_dict().get("phases", {}).items()
        },
    }


def bench_backends(
    batches: int, batch_size: int, jobs: int
) -> dict[str, Any]:
    """The service workload: ``batches`` small batches of ``batch_size``
    programs each, streamed through ``compile_many``.

    Three legs over identical work:

    * ``process_percall_seconds`` — process backend, one pool spawned and
      torn down per batch (the pre-``WorkerPool`` arrangement);
    * ``process_seconds`` — process backend on one persistent
      :class:`~repro.batch.pool.WorkerPool` with chunked submission;
    * ``thread_seconds`` — the same stream on a persistent thread pool,
      for context.

    ``process_speedup`` = per-call / persistent: the factor the warm pool
    buys the process backend on service-shaped traffic.  It is wall-time
    honest (pool spawn for the persistent leg happens inside the timed
    region — once, which is the point).
    """
    suite = generate_suite()
    stream = [
        [suite[(b * batch_size + i) % len(suite)] for i in range(batch_size)]
        for b in range(batches)
    ]

    def run_stream(**kwargs) -> tuple[float, int]:
        t0 = time.perf_counter()
        errors = 0
        for batch in stream:
            report = compile_many(batch, WARP, **kwargs)
            errors += len(report.errors)
        return time.perf_counter() - t0, errors

    percall_seconds, percall_errors = run_stream(
        jobs=jobs, backend="process"
    )
    with WorkerPool(jobs=jobs, backend="process") as pool:
        persistent_seconds, persistent_errors = run_stream(pool=pool)
    with WorkerPool(jobs=jobs, backend="thread") as pool:
        thread_seconds, thread_errors = run_stream(pool=pool)

    return {
        "units": batches * batch_size,
        "batches": batches,
        "batch_size": batch_size,
        "jobs": jobs,
        "thread_seconds": round(thread_seconds, 6),
        "process_percall_seconds": round(percall_seconds, 6),
        "process_seconds": round(persistent_seconds, 6),
        "process_speedup": round(
            percall_seconds / persistent_seconds
            if persistent_seconds else 0.0,
            3,
        ),
        "failures": percall_errors + persistent_errors + thread_errors,
    }


def bench_loadgen(*, quick: bool, jobs: int) -> dict[str, Any]:
    """The end-to-end service benchmark (see :mod:`repro.perf.loadgen`)."""
    from repro.perf.loadgen import run_loadgen

    clients, requests = (3, 6) if quick else (8, 24)
    return run_loadgen(
        clients=clients, requests=requests, jobs=jobs, backend="thread"
    )


# -- the suite -----------------------------------------------------------------


#: Every benchmark the suite knows, in run order.
BENCHMARK_NAMES = (
    "closure", "scheduler", "optimality", "suite", "backends", "loadgen",
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
    stream_batches, stream_batch_size = (6, 3) if quick else (24, 3)

    if "closure" in selected:
        report.benchmarks["closure"] = bench_closure(seed, closure_graphs)
    if "scheduler" in selected:
        report.benchmarks["scheduler"] = bench_scheduler(seed, sched_graphs)
    if "optimality" in selected:
        report.benchmarks["optimality"] = bench_optimality(seed, opt_graphs)
    if "suite" in selected:
        report.benchmarks["suite"] = bench_suite(suite_count)
    if "backends" in selected:
        report.benchmarks["backends"] = bench_backends(
            stream_batches, stream_batch_size, jobs
        )
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
    ``REGRESSION_FACTOR`` times the baseline's (plus the absolute floor).

    Only benchmarks reporting ``per_unit_seconds`` participate, so the
    machine-dependent backend speedup never fails a run.  Per-unit times
    are compared (rather than wall times) so a ``--quick`` run remains
    comparable against a full-size committed baseline.
    """
    baseline = load_report(baseline_path)
    regressions: list[str] = []
    for name, entry in current.benchmarks.items():
        per_unit: Optional[float] = entry.get("per_unit_seconds")
        base_entry = baseline.get("benchmarks", {}).get(name, {})
        base_per_unit: Optional[float] = base_entry.get("per_unit_seconds")
        if per_unit is None or base_per_unit is None:
            continue
        limit = REGRESSION_FACTOR * base_per_unit + ABSOLUTE_FLOOR_SECONDS
        if per_unit > limit:
            regressions.append(
                f"{name}: {per_unit * 1e3:.3f} ms/unit vs baseline"
                f" {base_per_unit * 1e3:.3f} ms/unit"
                f" (limit {limit * 1e3:.3f} ms/unit)"
            )
    return regressions
