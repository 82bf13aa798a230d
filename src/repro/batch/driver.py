"""The parallel batch-compilation driver.

``compile_many`` compiles a list of source programs with a worker pool
(`concurrent.futures`), per-program fault isolation, an optional
content-addressed schedule cache, and per-program observability.  One
failing program produces a structured :class:`CompileError` record in its
slot of the result list; the rest of the batch is unaffected.

Results are returned in input order regardless of worker scheduling, and
every worker compiles with its own register allocator and observer, so a
``jobs=4`` batch is bit-identical to a serial one (guarded by the
determinism and property tests).

Two pool backends share those semantics.  ``backend="thread"`` (the
default) is cheap to spin up but serialises the pure-Python compiler on
the GIL, so it mostly helps workloads that block (disk cache I/O).
``backend="process"`` uses :class:`~concurrent.futures.ProcessPoolExecutor`
for true parallel compilation; it requires the worker, items, and results
to be picklable (module-level functions and ``functools.partial`` closures
qualify; lambdas do not).
"""

from __future__ import annotations

import functools
import time
import traceback as _traceback
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Optional, Sequence, Union

from repro.batch.cache import ScheduleCache, cache_key
from repro.batch.pool import BACKENDS, WorkerPool
from repro.core.compile import CompiledProgram, CompilerPolicy, compile_program
from repro.machine import WARP, MachineDescription
from repro.obs import trace as obs

#: Anything ``compile_many`` accepts as one program: W2-like source text, a
#: ``(name, source)`` pair, or a workload object with ``source`` (and
#: ``name`` or ``number``) attributes.
SourceLike = Union[str, tuple, Any]


def run_many(
    items: Sequence[Any],
    worker,
    *,
    jobs: int = 1,
    backend: str = "thread",
    pool: Optional[WorkerPool] = None,
    chunk: Optional[int] = None,
) -> list[Any]:
    """Generic worker-pool map with submission-order results.

    The batch substrate shared by ``compile_many``, the fuzzing campaign,
    and the compile service: ``worker(item)`` runs for each item, ``jobs``
    at a time, and the result list aligns with the input order regardless
    of worker scheduling.  Fault isolation is the worker's contract — a
    worker that returns a structured error record instead of raising (like
    :func:`compile_one` or the audit campaign's case runner) keeps one bad
    item from taking down the batch.

    ``backend="process"`` swaps the thread pool for a process pool with
    identical ordering and fault-isolation semantics; worker, items, and
    results must then be picklable.

    ``pool`` supplies a persistent :class:`~repro.batch.pool.WorkerPool`
    to reuse across calls (``jobs``/``backend`` are then taken from the
    pool); without one, a fresh pool is spun up and torn down per call —
    fine for one big batch, expensive for a stream of small ones.  Large
    batches are submitted in chunks (see
    :func:`~repro.batch.pool.chunk_size`; override with ``chunk``) so tiny
    work items do not pay a pickle/future round-trip each.

    ``jobs`` must be non-negative; ``jobs`` of 0 or 1 runs the batch
    inline on the calling thread (as does a single-item batch without a
    persistent pool), and a negative ``jobs`` raises ``ValueError``.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown batch backend {backend!r}; expected one of {BACKENDS}"
        )
    items = list(items)
    if pool is not None:
        return pool.run(items, worker, chunk=chunk)
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with WorkerPool(jobs=jobs, backend=backend) as ephemeral:
        return ephemeral.run(items, worker, chunk=chunk)


@dataclass(frozen=True)
class CompileError:
    """A structured record of one failed compilation."""

    name: str
    phase: str
    error_type: str
    message: str
    traceback: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "phase": self.phase,
            "error_type": self.error_type,
            "message": self.message,
        }

    def __str__(self) -> str:
        where = f" during {self.phase}" if self.phase else ""
        return f"{self.name}: {self.error_type}{where}: {self.message}"


@dataclass
class CompileResult:
    """One program's slot in a batch: either a compilation or an error."""

    name: str
    compiled: Optional[CompiledProgram] = None
    error: Optional[CompileError] = None
    from_cache: bool = False
    seconds: float = 0.0
    stats: Optional[dict[str, Any]] = None

    @property
    def ok(self) -> bool:
        return self.compiled is not None


@dataclass
class BatchReport:
    """The outcome of one ``compile_many`` call."""

    results: list[CompileResult]
    jobs: int
    wall_seconds: float
    cached: bool = False

    @property
    def ok_results(self) -> list[CompileResult]:
        return [r for r in self.results if r.ok]

    @property
    def errors(self) -> list[CompileError]:
        return [r.error for r in self.results if r.error is not None]

    @property
    def cache_hits(self) -> int:
        return sum(1 for r in self.results if r.from_cache)

    @property
    def cache_misses(self) -> int:
        if not self.cached:
            return 0
        return sum(1 for r in self.results if not r.from_cache)

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    def __getitem__(self, index: int) -> CompileResult:
        return self.results[index]

    def to_dict(self) -> dict[str, Any]:
        """The batch summary; with per-program stats collected, also their
        per-phase seconds and calls and their counters, summed."""
        report: dict[str, Any] = {
            "programs": len(self.results),
            "ok": len(self.ok_results),
            "errors": [error.to_dict() for error in self.errors],
            "jobs": self.jobs,
            "wall_seconds": round(self.wall_seconds, 6),
            "cache": {
                "enabled": self.cached,
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": round(self.cache_hit_rate, 4),
            },
        }
        stats = [r.stats for r in self.results if r.stats is not None]
        if stats:
            seconds: dict[str, float] = {}
            calls: dict[str, int] = {}
            counters: dict[str, int] = {}
            for entry in stats:
                for name, phase in entry["phases"].items():
                    seconds[name] = seconds.get(name, 0.0) + phase["seconds"]
                    calls[name] = calls.get(name, 0) + phase["calls"]
                for name, amount in entry["counters"].items():
                    counters[name] = counters.get(name, 0) + amount
            report["phases"] = {
                name: {"seconds": round(seconds[name], 6),
                       "calls": calls[name]}
                for name in sorted(seconds)
            }
            report["counters"] = dict(sorted(counters.items()))
        return report

    def summary(self) -> str:
        parts = [
            f"{len(self.ok_results)}/{len(self.results)} programs compiled",
            f"jobs={self.jobs}",
            f"{self.wall_seconds * 1e3:.1f} ms",
        ]
        if self.cached:
            parts.append(
                f"cache {self.cache_hits} hits / {self.cache_misses} misses"
                f" ({self.cache_hit_rate:.0%})"
            )
        if self.errors:
            parts.append(f"{len(self.errors)} errors")
        return ", ".join(parts)


def _coerce_sources(sources: Iterable[SourceLike]) -> list[tuple[str, str]]:
    """Normalise the accepted source shapes to ``(name, text)`` pairs."""
    items: list[tuple[str, str]] = []
    for index, entry in enumerate(sources):
        if isinstance(entry, str):
            items.append((f"program{index}", entry))
        elif isinstance(entry, tuple) and len(entry) == 2:
            items.append((str(entry[0]), entry[1]))
        elif hasattr(entry, "source") and hasattr(entry, "number"):
            items.append((f"livermore{entry.number}", entry.source))
        elif hasattr(entry, "source") and hasattr(entry, "name"):
            items.append((entry.name, entry.source))
        else:
            raise TypeError(
                f"cannot interpret batch source #{index}: {entry!r}"
            )
    return items


def compile_one(
    name: str,
    source: str,
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
    *,
    cache: Optional[ScheduleCache] = None,
    collect_stats: bool = False,
) -> CompileResult:
    """Compile one named source with fault isolation and optional caching.

    Never raises for compiler-side failures: syntax errors, unschedulable
    loops, and register exhaustion all come back as ``result.error``.
    """
    t0 = time.perf_counter()
    with obs.observe() as observer:
        try:
            with obs.phase("frontend"):
                from repro.frontend import parse_program

                program, pragmas = parse_program(source)
                if pragmas.independent_arrays:
                    policy = replace(
                        policy,
                        independent_arrays=policy.independent_arrays
                        | pragmas.independent_arrays,
                    )
            key = None
            if cache is not None:
                key = cache_key(program, machine, policy)
                cached = cache.get(key)
                if cached is not None:
                    return CompileResult(
                        name=name,
                        compiled=cached,
                        from_cache=True,
                        seconds=time.perf_counter() - t0,
                        stats=observer.to_dict() if collect_stats else None,
                    )
            compiled = compile_program(program, machine, policy)
            if cache is not None and key is not None:
                try:
                    cache.put(key, compiled)
                except OSError:
                    pass  # an unwritable cache must not fail the program
        except Exception as exc:
            phase = observer.events[-1].name if observer.events else ""
            return CompileResult(
                name=name,
                error=CompileError(
                    name=name,
                    phase=phase,
                    error_type=type(exc).__name__,
                    message=str(exc),
                    traceback=_traceback.format_exc(),
                ),
                seconds=time.perf_counter() - t0,
                stats=observer.to_dict() if collect_stats else None,
            )
        return CompileResult(
            name=name,
            compiled=compiled,
            seconds=time.perf_counter() - t0,
            stats=observer.to_dict() if collect_stats else None,
        )


def _compile_item(
    item: tuple[str, str],
    machine: MachineDescription,
    policy: "CompilerPolicy",
    cache: Optional[ScheduleCache],
    collect_stats: bool,
) -> CompileResult:
    """Module-level batch worker (picklable for the process backend)."""
    name, text = item
    return compile_one(
        name, text, machine, policy,
        cache=cache, collect_stats=collect_stats,
    )


def compile_many(
    sources: Iterable[SourceLike],
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
    *,
    jobs: int = 1,
    backend: str = "thread",
    pool: Optional[WorkerPool] = None,
    cache: Optional[ScheduleCache] = None,
    collect_stats: bool = False,
) -> BatchReport:
    """Compile a batch of programs, ``jobs`` at a time.

    Returns a :class:`BatchReport` whose ``results`` align with the input
    order.  With a :class:`ScheduleCache`, programs already compiled for
    this (IR, machine, policy) triple are hash lookups.

    ``pool`` reuses a persistent :class:`~repro.batch.pool.WorkerPool`
    across calls — the compile service's configuration, where worker
    processes stay warm (imports done, caches primed) between batches.

    With ``backend="process"`` each worker process keeps its own in-memory
    cache layer (shared across tasks within that worker); a disk-backed
    :class:`ScheduleCache` still shares entries across workers (writes are
    atomic), and per-result ``from_cache`` flags keep the report's
    hit/miss accounting correct either way.
    """
    items = _coerce_sources(sources)
    t0 = time.perf_counter()
    worker = functools.partial(
        _compile_item,
        machine=machine,
        policy=policy,
        cache=cache,
        collect_stats=collect_stats,
    )
    results = run_many(items, worker, jobs=jobs, backend=backend, pool=pool)
    return BatchReport(
        results=results,
        jobs=pool.jobs if pool is not None else max(1, jobs),
        wall_seconds=time.perf_counter() - t0,
        cached=cache is not None,
    )
