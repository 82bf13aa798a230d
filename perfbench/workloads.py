"""The workloads and the inputs each makes from its seed.

Every run has the same two halves, so every end-to-end metric is measured
on every workload; the workloads differ in which half carries the load:

* a closed-loop compile half: one serial caller compiles the workload's
  compile set from source text through ``compile_many(..., jobs=1)``,
  with no cache;
* an open-loop serve half: one generating process sends ``compile``
  requests for warmed programs, so every timed request is a cache hit, to
  ``python -m repro serve`` running as its own subprocess.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: The generator opens no more connections (or threads) than the machine's
#: two vCPUs.  The server runs one worker thread: its thread workers share
#: one interpreter lock, so a second adds no compile throughput, and two
#: threads compiling at once race on ``MachineDescription.packed``'s
#: eviction (a ``KeyError`` in ``ii_attempt`` while the warm-up's
#: compiles queue at once).
SERVER_JOBS = 1
CONNECTIONS = 2
SERVER_FLAGS = ("--jobs", str(SERVER_JOBS), "--backend", "thread")

#: The fixed offered rate (requests/s), about half the capacity measured
#: on the seed code, and the tail-latency limit ``serve.max_rps`` is held
#: to.
RATE = 400.0
LIMIT_MS = 20.0

#: The suite workload compiles generate_suite(seed) at four times its
#: 72-program size, with the same proportions of conditionals and
#: recurrences.  Over ten seeds, the quartile spread of a pass's Python
#: call count (a noise-free proxy for its compile time) was 0.064 of the
#: median at 72 programs and 0.025 at 288, so the seed moves the
#: throughput, cycle and code-size sums less.  The server is warmed with,
#: and then serves, the same programs: with the first 72 only, the seed
#: moved the hit latency by 0.12 of its median.
SUITE_PROGRAMS = 288

#: Programs added to the exact set: a seeded draw from the six shortest
#: served programs.  Exact-backend cost is heavy-tailed
#: (a suite program takes 1 ms to over 3 s), so a draw from the whole
#: suite would let one program decide a pass's time; the shortest take a
#: few milliseconds, below the set's median, so the draw cannot move the
#: order statistics the p50 and the tail read.
EXACT_DRAW = 2
EXACT_DRAW_POOL = 6

#: Paper programs left out of the exact set.  Each takes 1.4-2.3 s under
#: the exact backend, over 80% of a pass together, so a run could compile
#: them only about four times and the host's speed during those few
#: compiles decided every exact figure.
EXACT_EXCLUDED = ("livermore6", "hough")

#: Small Livermore kernels the traced run of a heuristic workload
#: schedules with the exact backend, so the exact layer is measured on
#: every workload (each takes ~60 ms).
EXACT_PROBE_KERNELS = (1, 5)

#: A run alternates rounds of compile passes, repeated for at least
#: ``COMPILE_S`` seconds, with one fixed-rate serve window of ``WINDOW_S``
#: seconds until ``--seconds`` have passed.  Short rounds spread both
#: halves over the whole run, and many passes give each program many
#: samples to take its fastest from.
COMPILE_S = 1.0
WINDOW_S = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    #: Scheduler backend of the compile half.
    backend: str


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's Figure 4-1/4-2 population; emit, deps and the
        # frontend carry the compile half.
        Workload("suite", backend="heuristic"),
        # The paper's programs under the exact SAT backend, which does most
        # of the compile half's work.
        Workload("exact", backend="exact"),
    )
}

Source = tuple[str, str]  # (unique name, W2 source text)


def _suite(seed: int) -> list[Source]:
    from repro.workloads import generate_suite

    return [(f"s{seed}.{p.name}", p.source)
            for p in generate_suite(seed, count=SUITE_PROGRAMS)]


def compile_set(workload: Workload, seed: int) -> list[Source]:
    """What the compile half compiles, in order."""
    if workload.name == "exact":
        from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS

        paper = [
            (f"livermore{k.number}", k.source)
            for k in LIVERMORE_KERNELS.values()
        ] + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        fixed = [item for item in paper if item[0] not in EXACT_EXCLUDED]
        pool = sorted(served_set(seed),
                      key=lambda item: (len(item[1]), item[0]))
        draw = random.Random(seed).sample(pool[:EXACT_DRAW_POOL], EXACT_DRAW)
        return fixed + draw
    return _suite(seed)


def served_set(seed: int) -> list[Source]:
    """The programs the server is warmed with before any timed request."""
    return _suite(seed)


def exact_probe() -> list[Source]:
    from repro.workloads import LIVERMORE_KERNELS

    return [
        (f"livermore{n}", LIVERMORE_KERNELS[n].source)
        for n in EXACT_PROBE_KERNELS
    ]


def request_stream(seed: int, hot: list[Source]) -> Iterator[Source]:
    """The serve half's endless request sequence: warmed programs ``hot``
    drawn uniformly."""
    rng = random.Random(seed ^ 0x5E7E)
    while True:
        yield rng.choice(hot)
