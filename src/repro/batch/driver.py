"""The parallel batch-compilation driver.

``compile_many`` compiles a list of source programs on a thread pool,
with per-program fault isolation, an optional content-addressed schedule
cache, and per-program observability.  One failing program produces a
structured :class:`CompileError` record in its slot of the result list;
the rest of the batch is unaffected.

Results are returned in input order regardless of worker scheduling, and
every worker compiles with its own register allocator and observer, so a
``jobs=4`` batch is bit-identical to a serial one (guarded by the
determinism and property tests).  The compiler is pure Python, so the
threads share one interpreter lock: ``jobs > 1`` overlaps disk-cache
I/O, not compiling.  A process pool measured no faster than serial on
this work: pickling each compiled program back (about 13.5 KB) ate what
the extra workers gained.
"""

from __future__ import annotations

import time
import traceback as _traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Any, Iterable, Optional, Sequence, Union

from repro.batch.cache import ScheduleCache, cache_key, source_key
from repro.core.compile import CompiledProgram, CompilerPolicy, compile_program
from repro.machine import WARP, MachineDescription
from repro.obs import trace as obs

#: Anything ``compile_many`` accepts as one program: W2-like source text, a
#: ``(name, source)`` pair, or a workload object with ``source`` (and
#: ``name`` or ``number``) attributes.
SourceLike = Union[str, tuple, Any]


def run_many(items: Sequence[Any], worker, *, jobs: int = 1) -> list[Any]:
    """Thread-pool map with submission-order results.

    ``worker(item)`` runs for each item, ``jobs`` at a time, and the
    result list aligns with the input order regardless of worker
    scheduling.  Fault isolation is the worker's contract — a worker that
    returns a structured error record instead of raising (like
    :func:`compile_one`) keeps one bad item from taking down the batch; a
    worker exception propagates to the caller.

    ``jobs`` must be non-negative; ``jobs`` of 0 or 1 runs the batch
    inline on the calling thread (as does a single-item batch), and a
    negative ``jobs`` raises ``ValueError``.
    """
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [worker(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as executor:
        return list(executor.map(worker, items))


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


def alias_hit(
    name: str,
    alias: str,
    cache: ScheduleCache,
    t0: float,
) -> Optional[CompileResult]:
    """The ``from_cache`` result for a source already served, or ``None``.

    ``alias`` is the source's :func:`~repro.batch.cache.source_key` under
    the request's machine and policy.  :meth:`ScheduleCache.resolve` reads
    only the memory layer, so this never opens a file: the compile server
    calls it on its event loop to answer a repeat without a pool task.
    ``seconds`` runs from ``t0``; the result carries no stats.
    """
    compiled = cache.resolve(alias)
    if compiled is None:
        return None
    return CompileResult(
        name=name,
        compiled=compiled,
        from_cache=True,
        seconds=time.perf_counter() - t0,
    )


def _compile_cached(
    source: str,
    machine: MachineDescription,
    policy: CompilerPolicy,
    cache: Optional[ScheduleCache],
) -> tuple[CompiledProgram, bool]:
    """``source`` compiled, and whether ``cache`` supplied it: by its
    alias before the frontend runs, else by its IR key (memory, then
    disk).  A failure raises, so it is never aliased."""
    if cache is not None:
        alias = source_key(source, machine, policy)
        compiled = cache.resolve(alias)
        if compiled is not None:
            return compiled, True
    with obs.phase("frontend"):
        from repro.frontend import parse_with_policy

        program, policy = parse_with_policy(source, policy)
    if cache is None:
        return compile_program(program, machine, policy), False
    key = cache_key(program, machine, policy)
    compiled = cache.get(key)
    from_cache = compiled is not None
    if not from_cache:
        compiled = compile_program(program, machine, policy)
        try:
            cache.put(key, compiled)
        except OSError:
            pass  # an unwritable cache must not fail the program
    cache.add_alias(alias, key)
    return compiled, from_cache


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

    With ``collect_stats``, ``result.stats`` holds the observer's phases,
    counters and events, and under ``"loops"`` the program's
    :class:`~repro.core.compile.LoopReport` dicts, alike for a compile and
    a cache hit (an error has none).
    """
    t0 = time.perf_counter()
    compiled = error = None
    from_cache = False
    with obs.observe() as observer:
        try:
            compiled, from_cache = _compile_cached(
                source, machine, policy, cache
            )
        except Exception as exc:
            error = CompileError(
                name=name,
                phase=observer.events[-1].name if observer.events else "",
                error_type=type(exc).__name__,
                message=str(exc),
                traceback=_traceback.format_exc(),
            )
    result = CompileResult(
        name=name,
        compiled=compiled,
        error=error,
        from_cache=from_cache,
        seconds=time.perf_counter() - t0,
    )
    if collect_stats:
        result.stats = observer.to_dict()
        result.stats["loops"] = (
            [] if compiled is None else [asdict(l) for l in compiled.loops]
        )
    return result


def compile_many(
    sources: Iterable[SourceLike],
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
    *,
    jobs: int = 1,
    cache: Optional[ScheduleCache] = None,
    collect_stats: bool = False,
) -> BatchReport:
    """Compile a batch of programs, ``jobs`` at a time on threads.

    Returns a :class:`BatchReport` whose ``results`` align with the input
    order.  With a :class:`ScheduleCache`, programs already compiled for
    this (IR, machine, policy) triple are hash lookups.
    """
    items = _coerce_sources(sources)
    t0 = time.perf_counter()
    results = run_many(
        items,
        lambda item: compile_one(
            *item, machine, policy,
            cache=cache, collect_stats=collect_stats,
        ),
        jobs=jobs,
    )
    return BatchReport(
        results=results,
        jobs=max(1, jobs),
        wall_seconds=time.perf_counter() - t0,
        cached=cache is not None,
    )
