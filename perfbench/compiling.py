"""The closed-loop compile half: timed passes, the call-count pass, and the
output checks against the reference interpreter."""

from __future__ import annotations

import gc
import hashlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from perfbench.measure import Ledger, median, tail
from perfbench.tracing import Tracer, compiler_layers, patched
from perfbench.workloads import Source


def policy_for(backend: str):
    from repro import CompilerPolicy

    return CompilerPolicy(scheduler_backend=backend)


def compile_pass(items: list[Source], backend: str):
    """One timed pass: ``(wall seconds, results in input order)``."""
    from repro import WARP, compile_many

    t0 = time.perf_counter()
    report = compile_many(items, WARP, policy_for(backend), jobs=1)
    return time.perf_counter() - t0, report.results


def count_calls(items: list[Source], backend: str) -> tuple[int, list[Any]]:
    """Python calls (``call`` and ``c_call`` profile events) made while
    compiling ``items`` once, and the results.  The count is exact for a
    fixed ``PYTHONHASHSEED``."""
    from repro import WARP, compile_many

    policy = policy_for(backend)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    # An uncounted pass first, so every first-use import and memo set-up
    # happens outside the count: importing a module from its source and
    # from its cached bytecode take different calls.  Collecting garbage
    # then resets the collector's allocation counts, so its passes fall at
    # the same points of every count.
    compile_many(items, WARP, policy, jobs=1)
    gc.collect()
    sys.setprofile(profile)
    try:
        report = compile_many(items, WARP, policy, jobs=1)
    finally:
        sys.setprofile(None)
    return calls, report.results


def expected_replies(
    items: list[Source], ledger: Ledger
) -> dict[str, tuple[str, int]]:
    """The ``report`` and ``code_size`` a served compile of each program
    must reply with, from an in-process compile under the server's default
    policy.  Programs are compiled one at a time and only those two values
    kept, so the references add little to this process's peak memory."""
    from repro import WARP, CompilerPolicy
    from repro.batch.driver import compile_one

    expected = {}
    for name, source in items:
        result = compile_one(name, source, WARP, CompilerPolicy())
        if result.ok:
            expected[name] = (result.compiled.report(),
                              result.compiled.code_size)
        else:
            ledger.fail(f"reference compile error: {result.error}")
    return expected


def disasm_hash(compiled) -> str:
    from repro.core.display import disassemble

    return hashlib.sha256(disassemble(compiled.code).encode()).hexdigest()


@dataclass
class CompileHalf:
    """Wall time and per-program latencies (input order) of each timed
    pass."""

    programs: int
    passes: list[float] = field(default_factory=list)  # wall seconds
    latencies: list[list[float]] = field(default_factory=list)  # per pass

    def metrics(self) -> dict[str, Any]:
        """Figures over each program's fastest compile in the run.

        Contention from other tenants of the machine slows everything for
        seconds at a time, so a program's compiles differ by up to 1.6x
        between passes; its fastest is the one contention disturbed least.
        """
        best = [min(times) for times in zip(*self.latencies)]
        value, pct, count = tail(best)
        return {
            "compile_per_s": self.programs / sum(best),
            "compile_p50_ms": median(best) * 1e3,
            "compile_tail_ms": value * 1e3,
            "_tail": {"percentile": pct, "samples": count,
                      "passes": len(self.passes)},
        }


def compare_hashes(
    results: list[Any], hashes: dict[str, str], ledger: Ledger
) -> None:
    """Every program must compile, to the disassembly hashed before."""
    ledger.attempt(len(results))
    for r in results:
        if not r.ok:
            ledger.fail(f"compile error: {r.error}")
        elif disasm_hash(r.compiled) != hashes.get(r.name):
            ledger.fail(f"{r.name}: disassembly differs across passes")


def timed_pass(
    items: list[Source],
    backend: str,
    hashes: dict[str, str],
    ledger: Ledger,
    half: CompileHalf,
) -> None:
    """One timed pass, recorded in ``half``.  Its results do not outlive
    it, so every pass starts from the same heap."""
    wall, results = compile_pass(items, backend)
    half.passes.append(wall)
    half.latencies.append([r.seconds for r in results])
    compare_hashes(results, hashes, ledger)


def simulate(results: list[Any], ledger: Ledger) -> dict[str, Any]:
    """Run every compiled program on the VLIW simulator and compare final
    memory bit for bit with the scalar reference interpreter."""
    from repro.simulator import run_and_check

    rows = []
    seconds = 0.0
    for result in results:
        if not result.ok:
            continue
        t0 = time.perf_counter()
        try:
            stats = run_and_check(result.compiled.code)
        except Exception as exc:  # a mismatch or a simulator crash
            ledger.fail(f"{result.name}: {type(exc).__name__}: "
                        f"{str(exc).splitlines()[0]}")
            continue
        finally:
            seconds += time.perf_counter() - t0
        rows.append({
            "name": result.name,
            "cycles": stats.cycles,
            "code_words": result.compiled.code_size,
        })
    cycles = sum(row["cycles"] for row in rows)
    return {
        "sim_cycles": cycles,
        "code_words": sum(row["code_words"] for row in rows),
        "check_s": seconds,
        "cycles_per_s": cycles / seconds if seconds else 0.0,
        "rows": rows,
    }


def traced_pass(items: list[Source], backend: str, tracer: Tracer) -> list:
    """One pass with every compile layer wrapped in spans, one trace id per
    program, and the compiler's own ``collect_stats`` observer on."""
    from repro import WARP
    from repro.batch.driver import compile_one

    policy = policy_for(backend)
    results = []
    with patched(compiler_layers(tracer)):
        for name, source in items:
            tracer.trace_id = f"{backend}:{name}"
            with tracer.span("batch.driver.compile_one"):
                results.append(
                    compile_one(name, source, WARP, policy, collect_stats=True)
                )
    tracer.trace_id = ""
    return results
