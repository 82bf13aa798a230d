"""In-memory spans around calls into the compiler's layers.

The traced run wraps public functions of each layer from here, by
replacing the module attributes the callers look up, and restores them on
exit; nothing under ``src/`` knows it is traced.  A span records its name,
start, end, parent and the id of the program or request it belongs to.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    trace_id: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects nested spans on one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.trace_id = ""

    @contextmanager
    def span(self, name: str, **meta: Any) -> Iterator[Span]:
        record = Span(
            name,
            time.perf_counter(),
            parent=self._stack[-1] if self._stack else -1,
            trace_id=self.trace_id,
            meta=meta,
        )
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(
        self,
        name: str,
        fn: Callable,
        describe: Optional[Callable[[Any], dict[str, Any]]] = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span named ``name``;
        ``describe(result)`` adds counts to the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if describe is not None:
                    record.meta.update(describe(result))
                return result

        return traced

    # -- derived figures -----------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus what its children cover (children
        on one thread never overlap each other)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.seconds
        return [span.seconds - c for span, c in zip(self.spans, covered)]

    def durations(self, name: str) -> list[float]:
        return [s.seconds for s in self.spans if s.name == name]

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def meta_sum(self, name: str, key: str) -> int:
        return sum(s.meta.get(key, 0) for s in self.spans if s.name == name)

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self.self_seconds()):
            totals[span.name] += own
        return dict(sorted(totals.items(), key=lambda kv: -kv[1]))

    def write(self, path: str) -> None:
        own = self.self_seconds()
        origin = self.spans[0].start if self.spans else 0.0
        records = [
            {
                "index": index,
                "name": span.name,
                "trace_id": span.trace_id,
                "parent": span.parent,
                "start_us": round((span.start - origin) * 1e6, 1),
                "end_us": round((span.end - origin) * 1e6, 1),
                "self_us": round(own[index] * 1e6, 1),
                **({"meta": span.meta} if span.meta else {}),
            }
            for index, span in enumerate(self.spans)
        ]
        with open(path, "w") as handle:
            json.dump({"spans": records}, handle)


@contextmanager
def patched(replacements: list[tuple[str, str, Callable]]) -> Iterator[None]:
    """Set ``module.attr = value`` for each entry, restoring on exit."""
    saved = []
    try:
        for module_name, attr, value in replacements:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def _count_operations(program) -> dict[str, int]:
    from repro.ir.scan import walk_operations

    return {"ops": sum(1 for _ in walk_operations(program.body))}


def _graph_size(loop_graph) -> dict[str, int]:
    return {
        "nodes": len(loop_graph.graph.nodes),
        "edges": len(loop_graph.graph.edges),
    }


def compiler_layers(tracer: Tracer) -> list[tuple[str, str, Callable]]:
    """Wrappers for every compile-path call the benchmark traces.

    ``compile_one`` looks ``parse_program`` up in ``repro.frontend`` and
    ``compile_program`` in ``repro.batch.driver``; the compiler looks its
    phases up in ``repro.core.compile``; the parser looks ``tokenize`` up in
    ``repro.frontend.parser``.
    """
    import repro.batch.driver as driver
    import repro.core.compile as compile_mod
    import repro.frontend as frontend
    import repro.frontend.parser as parser

    create_scheduler = compile_mod.create_scheduler

    def traced_create_scheduler(*args, **kwargs):
        scheduler = create_scheduler(*args, **kwargs)
        heuristic = scheduler
        if scheduler.name == "exact":
            scheduler.schedule = tracer.wrap("exact.schedule",
                                             scheduler.schedule)
            heuristic = scheduler.heuristic  # its prepare and fallback
        heuristic.schedule = tracer.wrap(
            "core.pipeliner.schedule", heuristic.schedule
        )
        heuristic.prepare = tracer.wrap(
            "core.pipeliner.prepare", heuristic.prepare
        )
        return scheduler

    core = "repro.core.compile"
    return [
        ("repro.frontend", "parse_program",
         tracer.wrap("frontend.parse_program", frontend.parse_program)),
        ("repro.frontend.parser", "tokenize",
         tracer.wrap("frontend.tokenize", parser.tokenize)),
        ("repro.frontend", "lower",
         tracer.wrap("frontend.lower", frontend.lower)),
        ("repro.batch.driver", "compile_program",
         tracer.wrap("core.compile.program", driver.compile_program)),
        (core, "verify_program",
         tracer.wrap("ir.verify", compile_mod.verify_program)),
        (core, "eliminate_common_subexpressions",
         tracer.wrap("ir.cse", compile_mod.eliminate_common_subexpressions,
                     _count_operations)),
        (core, "build_reduced_loop_graph",
         tracer.wrap("deps.loop_graph", compile_mod.build_reduced_loop_graph,
                     _graph_size)),
        (core, "list_schedule_block",
         tracer.wrap("core.listsched.block", compile_mod.list_schedule_block)),
        (core, "create_scheduler", traced_create_scheduler),
        (core, "plan_expansion",
         tracer.wrap("core.mve.plan", compile_mod.plan_expansion,
                     lambda plan: {"unroll": plan.unroll})),
    ]


def cache_layers(tracer: Tracer) -> list[tuple[str, str, Callable]]:
    """Wrappers for the three fingerprints ``cache_key`` combines."""
    import repro.batch.cache as cache

    return [
        ("repro.batch.cache", name,
         tracer.wrap(f"batch.cache.{name}", getattr(cache, name)))
        for name in (
            "fingerprint_program", "fingerprint_machine", "fingerprint_policy"
        )
    ]
