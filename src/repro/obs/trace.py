"""The observer object and the ambient-installation machinery.

An observer is installed per compilation (or per batch worker) through a
:mod:`contextvars` context variable, so parallel compilations in different
threads each see their own observer and never contend on shared state.
"""

from __future__ import annotations

import contextvars
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

_CURRENT: contextvars.ContextVar[Optional["CompileObserver"]] = (
    contextvars.ContextVar("repro_observer", default=None)
)


@dataclass
class TraceEvent:
    """One timed span in the structured trace.

    ``at`` is seconds since the observer was created; ``meta`` carries
    phase-specific detail (e.g. the candidate II of one attempt and whether
    it was schedulable).
    """

    name: str
    at: float
    seconds: float
    meta: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        entry: dict[str, Any] = {
            "name": self.name,
            "at": round(self.at, 6),
            "seconds": round(self.seconds, 6),
        }
        if self.meta:
            entry.update(self.meta)
        return entry


class CompileObserver:
    """Collects phase timings and counters for one compilation."""

    def __init__(self) -> None:
        self._clock = time.perf_counter
        self._start = self._clock()
        self.events: list[TraceEvent] = []
        self.phase_seconds: dict[str, float] = {}
        self.phase_calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    # -- recording -----------------------------------------------------------

    def phase(self, name: str, **meta: Any) -> "PhaseSpan":
        """Time a span; the dict ``with`` binds may be mutated to enrich
        the trace entry (e.g. marking an II attempt as schedulable)."""
        return PhaseSpan(self, name, meta)

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- reporting -----------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        return self._clock() - self._start

    def to_dict(self) -> dict[str, Any]:
        return {
            "wall_seconds": round(self.wall_seconds, 6),
            "phases": {
                name: {
                    "seconds": round(self.phase_seconds[name], 6),
                    "calls": self.phase_calls[name],
                }
                for name in sorted(self.phase_seconds)
            },
            "counters": dict(sorted(self.counters.items())),
            "events": [event.to_dict() for event in self.events],
        }


class PhaseSpan:
    """One timed phase, as a context manager that binds ``meta``.

    On exit, also by an exception, the phase's seconds and calls are
    added up and its :class:`TraceEvent` appended, so nested phases
    append in exit order and ``events[-1]`` names the innermost phase an
    exception left.  With no observer the span only binds ``meta``.  A
    compile opens dozens of phases (one per II attempt, for one), so
    this is one plain object rather than a generator-based context
    manager, which costs about ten more calls per phase.
    """

    __slots__ = ("observer", "name", "meta", "t0")

    def __init__(
        self,
        observer: Optional[CompileObserver],
        name: str,
        meta: dict[str, Any],
    ) -> None:
        self.observer = observer
        self.name = name
        self.meta = meta

    def __enter__(self) -> dict[str, Any]:
        if self.observer is not None:
            self.t0 = self.observer._clock()
        return self.meta

    def __exit__(self, *exc_info: Any) -> None:
        observer = self.observer
        if observer is None:
            return
        t0, name = self.t0, self.name
        dt = observer._clock() - t0
        seconds, calls = observer.phase_seconds, observer.phase_calls
        seconds[name] = seconds.get(name, 0.0) + dt
        calls[name] = calls.get(name, 0) + 1
        observer.events.append(
            TraceEvent(name, t0 - observer._start, dt, self.meta)
        )


# -- ambient installation ------------------------------------------------------


def current() -> Optional[CompileObserver]:
    """The observer installed in this context, or ``None``."""
    return _CURRENT.get()


@contextmanager
def observe(
    observer: Optional[CompileObserver] = None,
) -> Iterator[CompileObserver]:
    """Install ``observer`` (a fresh one by default) for the dynamic extent
    of the ``with`` block and yield it."""
    obs = observer if observer is not None else CompileObserver()
    token = _CURRENT.set(obs)
    try:
        yield obs
    finally:
        _CURRENT.reset(token)


def phase(name: str, **meta: Any) -> PhaseSpan:
    """Time a span against the ambient observer; no-op without one."""
    return PhaseSpan(_CURRENT.get(), name, meta)


def count(name: str, amount: int = 1) -> None:
    obs = _CURRENT.get()
    if obs is not None:
        obs.count(name, amount)
