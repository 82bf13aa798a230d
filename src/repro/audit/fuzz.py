"""The fuzzing campaign driver behind ``python -m repro fuzz``.

A campaign derives one case per seed offset from the master seed, runs
them inline or, with ``jobs > 1``, on a process pool (each case
fault-isolated and carrying its own :class:`repro.obs.CompileObserver`),
and aggregates the violation counters.  A case's result is a few
counters and violations, cheap to send back, so processes pay here where
they do not for compiling.  Program cases go through the full
differential audit; graph cases drive the modulo scheduler directly on
random dependence graphs and audit the resulting schedules.

Any failing case prints the exact single-case command that reproduces it
(``python -m repro fuzz --seed <case seed> --count 1 --graphs 0`` or
``--count 0 --graphs 1``), which is also the workflow for growing the
regression corpus under ``tests/corpus/``.
"""

from __future__ import annotations

import functools
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.audit.differential import audit_program
from repro.audit.generate import (
    GraphConfig,
    ProgramConfig,
    random_dep_graph,
    random_program,
)
from repro.audit.oracle import Violation, audit_result
from repro.core.compile import CompilerPolicy
from repro.core.pipeliner import create_scheduler
from repro.core.schedule import SchedulingFailure
from repro.machine import WARP
from repro.machine.description import MachineDescription
from repro.obs import trace as obs


@dataclass(frozen=True)
class FuzzCase:
    """One unit of campaign work, reproducible from ``(kind, seed)``."""

    kind: str   # "program" | "graph"
    seed: int

    @property
    def name(self) -> str:
        return f"{self.kind}{self.seed}"

    def repro_command(self) -> str:
        shape = "--count 1 --graphs 0" if self.kind == "program" \
            else "--count 0 --graphs 1"
        return f"python -m repro fuzz --seed {self.seed} {shape}"


@dataclass
class CaseResult:
    """Outcome of one case: violations found plus its observer counters."""

    case: FuzzCase
    violations: list[Violation] = field(default_factory=list)
    error: Optional[str] = None
    seconds: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations and self.error is None


@dataclass
class FuzzReport:
    """Aggregate of one campaign."""

    seed: int
    results: list[CaseResult]
    jobs: int
    wall_seconds: float

    @property
    def failures(self) -> list[CaseResult]:
        return [r for r in self.results if not r.ok]

    @property
    def violations(self) -> list[Violation]:
        return [v for r in self.results for v in r.violations]

    @property
    def counters(self) -> dict[str, int]:
        totals: dict[str, int] = {}
        for result in self.results:
            for name, amount in result.counters.items():
                totals[name] = totals.get(name, 0) + amount
        return dict(sorted(totals.items()))

    def to_dict(self) -> dict[str, Any]:
        counters = self.counters
        return {
            "seed": self.seed,
            "cases": len(self.results),
            "programs": sum(1 for r in self.results if r.case.kind == "program"),
            "graphs": sum(1 for r in self.results if r.case.kind == "graph"),
            "failures": len(self.failures),
            "violations": {
                kind: sum(1 for v in self.violations if v.kind == kind)
                for kind in sorted({v.kind for v in self.violations})
            },
            "counters": counters,
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
        }

    def summary(self) -> str:
        counters = self.counters
        parts = [
            f"fuzz seed={self.seed}: {len(self.results)} cases",
            f"{len(self.violations)} violations",
            f"{counters.get('audit_loops_scheduled', 0)} loop schedules audited",
            f"{counters.get('audit_differential_runs', 0)} differential runs",
            f"jobs={self.jobs}",
            f"{self.wall_seconds:.1f} s",
        ]
        declines = counters.get("audit_scheduler_declines", 0)
        if declines:
            parts.insert(3, f"{declines} scheduler declines")
        pressure = counters.get("audit_register_declines", 0)
        if pressure:
            parts.insert(3, f"{pressure} register-pressure declines")
        checks = counters.get("optimality_checks", 0)
        if checks:
            parts.insert(
                3,
                f"{checks} optimality checks"
                f" ({counters.get('optimality_optimal', 0)} optimal,"
                f" {counters.get('optimality_gap', 0)} gaps,"
                f" {counters.get('optimality_decline_confirmed', 0)} declines"
                f" confirmed,"
                f" {counters.get('optimality_decline_missed', 0)} declines"
                f" missed,"
                f" {counters.get('optimality_budget', 0)} budget)",
            )
        return ", ".join(parts)


def run_graph_case(
    seed: int,
    machine: MachineDescription,
    config: GraphConfig = GraphConfig(),
    *,
    scheduler_backend: str = "heuristic",
    optimality: bool = False,
) -> list[Violation]:
    """Schedule one random dependence graph and audit the result.

    A :class:`SchedulingFailure` is a decline, not a violation: the
    heuristic is allowed to give up, just never to emit a wrong schedule.
    With ``optimality=True`` the case additionally runs the
    :func:`repro.audit.optimality.audit_optimality` cross-check, which
    classifies the heuristic outcome against the exact backend's
    certificate (and whose contradictions *are* violations).
    """
    graph = random_dep_graph(seed, machine, config)
    if optimality:
        from repro.audit.optimality import audit_optimality

        report = audit_optimality(graph, machine)
        if report.heuristic_ii is None:
            obs.count("audit_scheduler_declines")
        else:
            obs.count("audit_loops_scheduled")
        return report.violations
    scheduler = create_scheduler(machine, backend=scheduler_backend)
    try:
        result = scheduler.schedule(graph)
    except SchedulingFailure:
        obs.count("audit_scheduler_declines")
        return []
    obs.count("audit_loops_scheduled")
    return audit_result(result)


def run_case(
    case: FuzzCase,
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
    program_config: ProgramConfig = ProgramConfig(),
    graph_config: GraphConfig = GraphConfig(),
    optimality: bool = False,
) -> CaseResult:
    """Run one case with fault isolation and a private observer."""
    t0 = time.perf_counter()
    result = CaseResult(case=case)
    with obs.observe() as observer:
        try:
            if case.kind == "program":
                generated = random_program(case.seed, program_config)
                result.violations = audit_program(
                    generated.name, generated.source, machine, policy
                )
            else:
                result.violations = run_graph_case(
                    case.seed, machine, graph_config,
                    scheduler_backend=policy.scheduler_backend,
                    optimality=optimality,
                )
        except Exception:
            result.error = traceback.format_exc(limit=6)
        result.counters = dict(observer.counters)
    result.seconds = time.perf_counter() - t0
    return result


def run_campaign(
    seed: int = 1988,
    count: int = 100,
    *,
    graphs: Optional[int] = None,
    jobs: int = 1,
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
    program_config: ProgramConfig = ProgramConfig(),
    graph_config: GraphConfig = GraphConfig(),
    optimality: bool = False,
) -> FuzzReport:
    """Run ``count`` program cases and ``graphs`` graph cases (default
    ``count // 4``), derived from consecutive seeds so any single case is
    reproducible with ``--seed <case seed> --count 1``.

    ``jobs > 1`` runs the cases on that many processes, in case order;
    ``jobs`` of 0 or 1 runs them inline, and a negative ``jobs`` raises
    ``ValueError``.  The worker is a :func:`functools.partial` over the
    module-level :func:`run_case` so it pickles cleanly.

    ``optimality=True`` upgrades every graph case to the heuristic-vs-exact
    cross-check of :mod:`repro.audit.optimality`.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if graphs is None:
        graphs = count // 4
    cases = [FuzzCase("program", seed + i) for i in range(count)]
    cases += [FuzzCase("graph", seed + i) for i in range(graphs)]
    t0 = time.perf_counter()
    worker = functools.partial(
        run_case,
        machine=machine,
        policy=policy,
        program_config=program_config,
        graph_config=graph_config,
        optimality=optimality,
    )
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as executor:
            results = list(executor.map(worker, cases))
    else:
        results = [worker(case) for case in cases]
    return FuzzReport(
        seed=seed,
        results=results,
        jobs=max(1, jobs),
        wall_seconds=time.perf_counter() - t0,
    )
