"""The compile-service load generator.

Spins up a real :class:`~repro.serve.CompileServer` on a throwaway unix
socket, hammers it with concurrent clients issuing ``compile`` requests
drawn from the synthetic suite, and reports what a service owner watches:
p50/p99 per-request latency, aggregate throughput, the cache-hit rate,
and failures.  Requests repeat programs across clients on purpose — the
second client asking for a program the first already compiled must be a
shared-cache hit, which is the entire point of one long-lived service
over per-invocation compilers.

Measurement is steady-state: one warmup pass compiles every distinct
program first (``warmup_seconds``), so the timed phase measures the
service under a warm shared cache.  That keeps ``per_unit_seconds``
comparable between ``--quick`` and full runs (a cold quick run would be
dominated by first-compile cost, not service behaviour) and makes the
regression gate track protocol and cache overhead rather than the
compiler's own speed, which the ``suite`` benchmark already gates.  (A
warm repeat is answered on the server's event loop from the source
alias, so the timed phase never waits in the worker pool.)

The warmup pass doubles as the *cold-cache phase*: each first-sight
request is timed individually and reported as ``cold_p50_seconds`` /
``cold_p99_seconds`` over ``cold_requests``, the latency a client pays
when its program is not yet in the shared cache.  Cold percentiles are
reported alongside the steady-state ones, never mixed into them (nor
into ``per_unit_seconds``, which stays warm-phase-only and
regression-comparable).
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from typing import Any, Optional

from repro.workloads import generate_suite


def percentile(samples: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``samples`` (0.5 -> p50, 0.99 -> p99)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return ordered[rank]


def run_loadgen(
    *,
    clients: int = 8,
    requests: int = 24,
    jobs: int = 4,
    programs: Optional[int] = 16,
    socket_path: Optional[str] = None,
) -> dict[str, Any]:
    """Run ``clients`` concurrent clients, each issuing ``requests``
    compile requests round-robin over the suite's first ``programs``
    programs, against a fresh in-process server.

    Returns the ``loadgen`` benchmark entry: latency percentiles,
    throughput, cache-hit rate, and the server's final stats block.
    """
    from repro.serve import CompileServer, ServeClient, ServeConfig, ServerThread

    sources = generate_suite()[: programs or None]
    tmpdir: Optional[tempfile.TemporaryDirectory] = None
    if socket_path is None:
        tmpdir = tempfile.TemporaryDirectory(prefix="repro_loadgen_")
        socket_path = os.path.join(tmpdir.name, "serve.sock")

    server = CompileServer(
        ServeConfig(socket_path=socket_path, jobs=jobs)
    )
    latencies: list[list[float]] = [[] for _ in range(clients)]
    hits = [0] * clients
    failures = [0] * clients

    def client_run(index: int) -> None:
        with ServeClient(socket_path=socket_path) as client:
            for r in range(requests):
                program = sources[(index + r * clients) % len(sources)]
                t0 = time.perf_counter()
                try:
                    result = client.compile(
                        program.source, name=getattr(program, "name", "p")
                    )
                except Exception:
                    failures[index] += 1
                    continue
                latencies[index].append(time.perf_counter() - t0)
                if result.get("from_cache"):
                    hits[index] += 1
                if not result.get("ok"):
                    failures[index] += 1

    try:
        with ServerThread(server):
            # Warmup populates the shared cache and is measured per
            # request: every program is first-sight here, so these
            # latencies are the cold-cache phase.
            cold_latencies: list[float] = []
            t0 = time.perf_counter()
            with ServeClient(socket_path=socket_path) as warmer:
                for program in sources:
                    c0 = time.perf_counter()
                    result = warmer.compile(
                        program.source, name=getattr(program, "name", "p")
                    )
                    cold_latencies.append(time.perf_counter() - c0)
                    if not result.get("ok"):
                        failures[0] += 1
            warmup_seconds = time.perf_counter() - t0
            threads = [
                threading.Thread(target=client_run, args=(i,))
                for i in range(clients)
            ]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - t0
            with ServeClient(socket_path=socket_path) as probe:
                server_stats = probe.status()["stats"]
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()

    all_latencies = [sample for bucket in latencies for sample in bucket]
    total = clients * requests
    completed = len(all_latencies)
    return {
        "units": total,
        "clients": clients,
        "requests_per_client": requests,
        "jobs": jobs,
        "distinct_programs": len(sources),
        "warmup_seconds": round(warmup_seconds, 6),
        "cold_requests": len(cold_latencies),
        "cold_p50_seconds": round(percentile(cold_latencies, 0.50), 6),
        "cold_p99_seconds": round(percentile(cold_latencies, 0.99), 6),
        "wall_seconds": round(wall, 6),
        "per_unit_seconds": round(wall / max(1, total), 9),
        "throughput_rps": round(completed / wall if wall else 0.0, 3),
        "p50_seconds": round(percentile(all_latencies, 0.50), 6),
        "p99_seconds": round(percentile(all_latencies, 0.99), 6),
        "max_seconds": round(max(all_latencies, default=0.0), 6),
        "cache_hit_rate": round(sum(hits) / max(1, completed), 4),
        "failures": sum(failures) + (total - completed),
        "server_queue_depth_final": server_stats["queue_depth"],
        "server_requests": server_stats["requests"].get(
            "serve_requests_compile", 0
        ),
    }
