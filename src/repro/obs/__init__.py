"""Compiler observability: phase timers, counters, and a structured trace.

The scheduler is a search procedure whose cost must be measured before it
can be optimized (the linear II search of section 2.2 is the suspected hot
path).  This package provides the instrumentation: a
:class:`CompileObserver` collects per-phase wall-clock timings (dependence
graph construction, MII bounds, each initiation-interval attempt, modulo
variable expansion, emission), counters (II attempts, SCC counts,
backtracks), all dumpable as JSON via ``python -m repro compile --stats``
beside each loop's :class:`~repro.core.compile.LoopReport`.

Core modules report through the module-level helpers (:func:`phase`,
:func:`count`), which are no-ops unless an observer has been installed
with :func:`observe` — uninstrumented compiles pay only a
context-variable lookup.
"""

from repro.obs.trace import (
    CompileObserver,
    TraceEvent,
    count,
    current,
    observe,
    phase,
)

__all__ = [
    "CompileObserver",
    "TraceEvent",
    "count",
    "current",
    "observe",
    "phase",
]
