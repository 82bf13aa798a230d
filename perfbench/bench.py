"""One benchmark run: set up, measure, check every output, and assemble
the metrics.

Order of a run (the end-to-end metrics come from an untraced run, the
per-layer metrics from a separate traced one):

1. set-up, timed as ``setup_s``: input generation, server start and the
   server's cache warm-up, repeated ``SETUP_REPS`` times (median), plus the
   one-off import time;
2. the first pass over the compile set: the call-count pass in untraced
   runs, a plain timed pass in traced runs.  Its programs are simulated
   against the reference interpreter and their disassembly hashed.  Then
   every served program is compiled in-process for the reply it must get;
3. untraced runs: rounds of timed compile passes, repeated for
   ``COMPILE_S``, and one fixed-rate serve window until ``--seconds`` have
   passed.  Traced runs: untraced and traced passes, alternating, for
   ``--seconds``, the other scheduler backend's probe, one fixed-rate
   serve phase, the rate sweep and an in-process replay of the hit path.

Each batch of replies (the warm-up, every serve window, the sweep) is
checked as soon as it has ended, outside every timed region, and only the
requests' timings are kept: this process's peak memory is ``rss_mb``, and
must not grow with the number of requests a run had time to send.
"""

from __future__ import annotations

import glob
import hashlib
import itertools
import json
import os
import time
from collections import Counter
from typing import Any, Optional

from perfbench import compiling, serving
from perfbench.measure import Ledger, environment, median, peak_rss_mb
from perfbench.tracing import Tracer, cache_layers, patched
from perfbench.workloads import (
    COMPILE_S,
    LIMIT_MS,
    RATE,
    SERVER_FLAGS,
    WINDOW_S,
    WORKLOADS,
    Source,
    compile_set,
    exact_probe,
    request_stream,
    served_set,
)

SETUP_REPS = 3
#: Warm-up requests are sent this fast: all of them queue at once.
WARM_RATE = 2000.0
#: The rate sweep starts at this multiple of the fixed rate, in steps of
#: this many seconds.
SWEEP_START = 1.5
SWEEP_STEP_S = 0.5
#: A traced run's fixed-rate phase is this many serve windows long.
TRACED_WINDOWS = 3
#: A traced run compiles the set at least this many times untraced and as
#: many traced, alternating; ``trace.overhead_frac`` compares each
#: program's fastest compile of either kind.  Only the first traced pass
#: keeps its spans.
TRACE_PAIRS = 3
#: A run measures at least this many rounds, however slow the host, so
#: every program has samples to take its fastest from.
MIN_ROUNDS = 3
OUT_DIR = ".perfbench"

END_TO_END_UNITS = {
    "setup_s": "s",
    "compile_per_s": "programs/s",
    "compile_p50_ms": "ms",
    "compile_tail_ms": "ms",
    "compile_kcalls": "kcalls/program",
    "sim_cycles": "cycles",
    "code_words": "words",
    "serve_p50_ms": "ms",
    "serve_tail_ms": "ms",
    "rss_mb": "MB",
}

#: Per-layer metric -> unit.  Names ending in a count unit must repeat
#: exactly between runs of the same code and seed.
PER_LAYER_UNITS = {
    "frontend.tokenize_ms": "ms",
    "frontend.parse_program_ms": "ms",
    "frontend.lower_ms": "ms",
    "frontend.calls": "count",
    "ir.verify_ms": "ms",
    "ir.cse_ms": "ms",
    "ir.ops_after_cse": "count",
    "ir.calls": "count",
    "deps.loop_graph_ms": "ms",
    "deps.nodes": "count",
    "deps.edges": "count",
    "deps.calls": "count",
    "core.listsched.block_ms": "ms",
    "core.pipeliner.prepare_ms": "ms",
    "core.pipeliner.schedule_ms": "ms",
    "core.pipeliner.ii_attempts": "count",
    "core.pipeliner.backtracks": "count",
    "core.pipeliner.loops_at_mii": "count",
    "core.pipeliner.calls": "count",
    "core.mve.plan_ms": "ms",
    "core.mve.unroll_sum": "count",
    "core.emit.ms": "ms",
    "core.emit.words": "count",
    "core.compile.program_ms": "ms",
    "core.compile.calls": "count",
    "exact.schedule_ms": "ms",
    "exact.sat_calls": "count",
    "exact.ii_attempts": "count",
    "exact.fallbacks": "count",
    "exact.budget_exhausted": "count",
    "exact.loops_at_mii": "count",
    "batch.cache.fingerprint_program_us": "us",
    "batch.cache.fingerprint_machine_us": "us",
    "batch.cache.cache_key_us": "us",
    "batch.cache.get_hit_us": "us",
    "batch.cache.put_us": "us",
    "batch.cache.hits": "count",
    "batch.cache.misses": "count",
    "batch.cache.memory_entries": "count",
    "batch.driver.hit_service_ms": "ms",
    "batch.driver.miss_service_ms": "ms",
    "batch.pool.completed": "count",
    "batch.pool.active_final": "count",
    "serve.roundtrip_ms": "ms",
    "serve.overhead_ms": "ms",
    "serve.encode_us": "us",
    "serve.decode_us": "us",
    "serve.rejected": "count",
    "serve.max_rps": "req/s",
    "simulator.check_s": "s",
    "simulator.cycles_per_s": "cycles/s",
    "loadgen.late_ms": "ms",
    "trace.overhead_frac": "fraction",
}


class Run:
    """State of one benchmark run."""

    def __init__(
        self,
        root: str,
        workload: str,
        seed: int,
        seconds: float,
        trace: bool,
        import_s: float,
        corrupt: Optional[str] = None,
        programs: Optional[int] = None,
    ) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.import_s = import_s
        self.corrupt = corrupt
        self.programs = programs
        self.ledger = Ledger()
        self.details: dict[str, Any] = {}
        self.tracer = Tracer()
        self.server: Optional[serving.ServerProcess] = None
        self.loop: Optional[serving.OpenLoop] = None
        os.makedirs(os.path.join(root, OUT_DIR), exist_ok=True)

    # -- inputs --------------------------------------------------------------

    def _inputs(self) -> tuple[list[Source], list[Source]]:
        items = compile_set(self.workload, self.seed)[: self.programs]
        served = served_set(self.seed)[: self.programs]
        return items, served

    def _socket_path(self, rep: int) -> str:
        return os.path.join(OUT_DIR, f"serve-{os.getpid()}-{rep}.sock")

    # -- set-up --------------------------------------------------------------

    def setup(self) -> None:
        """Generate inputs, start the server and warm its cache, timed
        ``SETUP_REPS`` times; the last server stays up for the run."""
        reps = 1 if self.trace else SETUP_REPS
        times = []
        for rep in range(reps):
            t0 = time.perf_counter()
            self.items, self.served = self._inputs()
            self.server = serving.ServerProcess(
                self.root, self._socket_path(rep)
            )
            self.server.wait_ready()
            self.loop = serving.OpenLoop(self.server.socket_path)
            self.warm = self.loop.run(self.served, WARM_RATE, drain_s=300.0)
            times.append(time.perf_counter() - t0)
            if rep + 1 < reps:
                self.close()
        self.setup_s = self.import_s + median(times)
        self.details["setup_reps_s"] = times
        self.stream = request_stream(self.seed, self.served)

    def close(self) -> None:
        """Stop the generator and the server, if they are running."""
        if self.loop is not None:
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- measurement ---------------------------------------------------------

    def first_pass(self) -> None:
        """The call-count pass (traced runs: one plain pass), whose
        programs are simulated and hashed for the later passes; then the
        references every reply is checked against, starting with the
        warm-up's."""
        t0 = time.perf_counter()
        if self.trace:
            _, results = compiling.compile_pass(self.items,
                                                self.workload.backend)
        else:
            calls, results = compiling.count_calls(self.items,
                                                   self.workload.backend)
            self.kcalls = calls / len(self.items) / 1e3
        self.details["first_pass_s"] = time.perf_counter() - t0
        self.ledger.attempt(len(results))
        self._check_first_pass(results)
        self.expected = compiling.expected_replies(self.served, self.ledger)
        if self.corrupt == "code_size" and self.expected:
            name = sorted(self.expected)[0]
            report, size = self.expected[name]
            self.expected[name] = (report, size + 1)
        self.warm = self._settle(self.warm)

    def measure(self) -> None:
        """Alternate ``COMPILE_S`` of timed compile passes with a
        fixed-rate serve window until ``--seconds`` have passed and
        ``MIN_ROUNDS`` are done, so a burst of host contention cannot own
        a whole half."""
        w = self.workload
        self.half = compiling.CompileHalf(len(self.items))
        self.windows: list[list[serving.Sample]] = []
        deadline = time.perf_counter() + self.seconds
        while True:
            compile_until = time.perf_counter() + COMPILE_S
            while True:
                compiling.timed_pass(self.items, w.backend, self.hashes,
                                     self.ledger, self.half)
                if time.perf_counter() >= compile_until:
                    break
            self.windows.append(self._settle(self._serve_window(WINDOW_S)))
            if (time.perf_counter() >= deadline
                    and len(self.windows) >= MIN_ROUNDS):
                break
        self.bench_rss_mb = peak_rss_mb()

    def measure_traced(self) -> None:
        """Untraced and traced passes, alternating, until ``--seconds``
        have passed and ``TRACE_PAIRS`` pairs are done; the other
        backend's probe, a fixed-rate serve phase of ``TRACED_WINDOWS``
        windows, and the rate sweep."""
        backend = self.workload.backend
        self.half = compiling.CompileHalf(len(self.items))
        traced_latencies = []
        deadline = time.perf_counter() + self.seconds
        for pair in itertools.count():
            if pair >= TRACE_PAIRS and time.perf_counter() >= deadline:
                break
            compiling.timed_pass(self.items, backend, self.hashes,
                                 self.ledger, self.half)
            traced = compiling.traced_pass(
                self.items, backend, self.tracer if pair == 0 else Tracer()
            )
            compiling.compare_hashes(traced, self.hashes, self.ledger)
            traced_latencies.append([r.seconds for r in traced])
            if pair == 0:
                self.traced_results = {backend: traced}
        fastest = [sum(map(min, zip(*runs)))
                   for runs in (traced_latencies, self.half.latencies)]
        self.trace_overhead = fastest[0] / fastest[1] - 1.0
        # Measure the other scheduler backend on every workload too.
        if backend == "exact":
            other, probe = "heuristic", self.items
        else:
            other, probe = "exact", exact_probe()
        self.traced_results[other] = compiling.traced_pass(
            probe, other, self.tracer
        )
        self.windows = [self._settle(
            self._serve_window(WINDOW_S * TRACED_WINDOWS)
        )]
        self.status = self.loop.control("status")["stats"]
        self.max_rps, steps, swept = serving.sweep(
            self.loop,
            lambda n: list(itertools.islice(self.stream, n)),
            RATE * SWEEP_START, LIMIT_MS / 1e3, SWEEP_STEP_S,
        )
        self._settle(swept)
        self.details["sweep"] = steps

    def _serve_window(self, seconds: float) -> list[serving.Outcome]:
        count = max(20, round(RATE * seconds))
        return self.loop.run(
            list(itertools.islice(self.stream, count)), RATE, drain_s=5.0,
        )

    @property
    def fixed(self) -> list[serving.Sample]:
        return [s for window in self.windows for s in window]

    def _check_first_pass(self, results: list) -> None:
        """Simulate every program against the reference interpreter and
        hash its disassembly for the later passes."""
        for r in results:
            if not r.ok:
                self.ledger.fail(f"compile error: {r.error}")
        if self.corrupt == "cell":
            self.sim = self._simulate_with_flipped_cell(results)
        else:
            self.sim = compiling.simulate(results, self.ledger)
        self.hashes = {r.name: compiling.disasm_hash(r.compiled)
                       for r in results if r.ok}

    # -- checks --------------------------------------------------------------

    def _settle(self, outcomes: list[serving.Outcome]) -> list[serving.Sample]:
        """Compare every reply with the in-process compile of the same
        source, and keep only each request's timings."""
        self.ledger.attempt(len(outcomes))
        for o in outcomes:
            if not o.ok:
                reason = o.error or (o.reply or {}).get("error", "not ok")
                self.ledger.fail(f"request {o.name}: {reason}")
            elif (o.reply["report"], o.reply["code_size"]) != (
                self.expected.get(o.name)
            ):
                self.ledger.fail(f"request {o.name}: reply differs from the"
                                 " in-process compile")
        return [o.sample() for o in outcomes]

    def _simulate_with_flipped_cell(self, results: list) -> dict[str, Any]:
        """The check against a reference whose first program's final
        memory has one cell flipped; it must fail."""
        import repro.simulator.executor as executor

        real = executor.Interpreter
        flipped = []

        class FlippedInterpreter(real):
            def run(self):
                memory = super().run()
                if not flipped:
                    key = sorted(memory)[0]
                    value = memory[key]
                    memory[key] = (value ^ 1 if isinstance(value, int)
                                   else -value - 1.0)
                    flipped.append(key)
                return memory

        with patched([("repro.simulator.executor", "Interpreter",
                       FlippedInterpreter)]):
            return compiling.simulate(results, self.ledger)

    # -- the traced hit path -------------------------------------------------

    def replay_hit_path(self) -> None:
        """Replay the served sources' cache-hit path in-process: request
        decode, parse, ``cache_key`` with its fingerprints, ``get``,
        ``result_to_wire`` + ``encode_line``; ``put`` fills the cache."""
        import repro.batch.cache as cache_mod
        from repro import WARP, CompilerPolicy
        from repro.batch.driver import CompileResult, compile_one
        from repro.frontend import parse_program
        from repro.serve.protocol import (
            decode_line,
            encode_line,
            result_to_wire,
        )

        tracer = self.tracer
        policy = CompilerPolicy()
        cache = cache_mod.ScheduleCache(None)
        codes = {}
        for name, source in self.served:
            result = compile_one(name, source, WARP, policy)
            if result.ok:
                codes[name] = result.compiled
            else:
                self.ledger.fail(f"replay {name}: {result.error}")
        with patched(cache_layers(tracer)):
            for name, source in self.served:
                if name not in codes:
                    continue
                tracer.trace_id = f"request:{name}"
                program, _ = parse_program(source)
                key = cache_mod.cache_key(program, WARP, policy)
                with tracer.span("batch.cache.put"):
                    cache.put(key, codes[name])
            for index, (name, source) in enumerate(self.served):
                tracer.trace_id = f"request:{name}"
                line = encode_line({"op": "compile", "id": index,
                                    "name": name, "source": source})
                with tracer.span("serve.request"):
                    with tracer.span("serve.decode_line"):
                        payload = decode_line(line)
                    with tracer.span("frontend.replay_parse"):
                        program, _ = parse_program(payload["source"])
                    with tracer.span("batch.cache.cache_key"):
                        key = cache_mod.cache_key(program, WARP, policy)
                    with tracer.span("batch.cache.get"):
                        compiled = cache.get(key)
                    if compiled is None:
                        self.ledger.fail(f"replay {name}: cache miss")
                        continue
                    with tracer.span("serve.encode"):
                        encode_line(result_to_wire(
                            CompileResult(name, compiled, from_cache=True),
                            request_id=index,
                        ))
        tracer.trace_id = ""

    # -- metrics -------------------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        compile_metrics = self.half.metrics()
        serve = serving.latency_summary(self.windows)
        self.details["tails"] = {
            "compile_tail_ms": compile_metrics.pop("_tail"),
            "serve_tail_ms": {"percentile": serve["tail_percentile"],
                              "samples": serve["samples"],
                              "slices": serve["slices"]},
        }
        return {
            "setup_s": self.setup_s,
            **compile_metrics,
            "compile_kcalls": self.kcalls,
            "sim_cycles": self.sim["sim_cycles"],
            "code_words": self.sim["code_words"],
            "serve_p50_ms": serve["p50_s"] * 1e3,
            "serve_tail_ms": serve["tail_s"] * 1e3,
            "rss_mb": self.bench_rss_mb,
        }

    def per_layer(self) -> dict[str, float]:
        t = self.tracer

        def ms(name: str) -> float:
            return median(t.durations(name)) * 1e3

        def us(name: str) -> float:
            return median(t.durations(name)) * 1e6

        def counters(backend: str) -> Counter:
            total: Counter = Counter()
            for r in self.traced_results.get(backend, []):
                if r.stats:
                    total.update(r.stats["counters"])
            return total

        heuristic, exact = counters("heuristic"), counters("exact")
        own = self.traced_results[self.workload.backend]
        emit_s = [r.stats["phases"]["emit"]["seconds"] for r in own
                  if r.stats and "emit" in r.stats["phases"]]
        fixed = [s for s in self.fixed if s.ok]
        hits = [s.service_s for s in fixed if s.from_cache]
        misses = [s.service_s for s in self.warm + fixed
                  if s.ok and not s.from_cache]
        cache, pool = self.status["cache"], self.status["pool"]
        return {
            "frontend.tokenize_ms": ms("frontend.tokenize"),
            "frontend.parse_program_ms": ms("frontend.parse_program"),
            "frontend.lower_ms": ms("frontend.lower"),
            "frontend.calls": t.calls("frontend.parse_program"),
            "ir.verify_ms": ms("ir.verify"),
            "ir.cse_ms": ms("ir.cse"),
            "ir.ops_after_cse": t.meta_sum("ir.cse", "ops"),
            "ir.calls": t.calls("ir.verify") + t.calls("ir.cse"),
            "deps.loop_graph_ms": ms("deps.loop_graph"),
            "deps.nodes": t.meta_sum("deps.loop_graph", "nodes"),
            "deps.edges": t.meta_sum("deps.loop_graph", "edges"),
            "deps.calls": t.calls("deps.loop_graph"),
            "core.listsched.block_ms": ms("core.listsched.block"),
            "core.pipeliner.prepare_ms": ms("core.pipeliner.prepare"),
            "core.pipeliner.schedule_ms": ms("core.pipeliner.schedule"),
            "core.pipeliner.ii_attempts": heuristic["ii_attempts"],
            "core.pipeliner.backtracks": heuristic["backtracks"],
            "core.pipeliner.loops_at_mii": heuristic["loops_at_mii"],
            "core.pipeliner.calls": t.calls("core.pipeliner.schedule"),
            "core.mve.plan_ms": ms("core.mve.plan"),
            "core.mve.unroll_sum": t.meta_sum("core.mve.plan", "unroll"),
            "core.emit.ms": median(emit_s) * 1e3,
            "core.emit.words": sum(r.compiled.code_size for r in own if r.ok),
            "core.compile.program_ms": ms("core.compile.program"),
            "core.compile.calls": t.calls("core.compile.program"),
            "exact.schedule_ms": ms("exact.schedule"),
            "exact.sat_calls": exact["exact_sat_calls"],
            "exact.ii_attempts": exact["exact_ii_attempts"],
            "exact.fallbacks": exact["exact_fallbacks"],
            "exact.budget_exhausted": exact["exact_budget_exhausted"],
            "exact.loops_at_mii": exact["loops_at_mii"],
            "batch.cache.fingerprint_program_us":
                us("batch.cache.fingerprint_program"),
            "batch.cache.fingerprint_machine_us":
                us("batch.cache.fingerprint_machine"),
            "batch.cache.cache_key_us": us("batch.cache.cache_key"),
            "batch.cache.get_hit_us": us("batch.cache.get"),
            "batch.cache.put_us": us("batch.cache.put"),
            "batch.cache.hits": cache["hits"],
            "batch.cache.misses": cache["misses"],
            "batch.cache.memory_entries": cache["memory_entries"],
            "batch.driver.hit_service_ms": median(hits) * 1e3,
            "batch.driver.miss_service_ms": median(misses) * 1e3,
            "batch.pool.completed": pool["completed"],
            "batch.pool.active_final": pool["active"],
            "serve.roundtrip_ms": median(s.done - s.sent for s in fixed) * 1e3,
            "serve.overhead_ms": median(
                s.done - s.sent - s.service_s for s in fixed
            ) * 1e3,
            "serve.encode_us": us("serve.encode"),
            "serve.decode_us": us("serve.decode_line"),
            "serve.rejected": sum(1 for s in self.fixed
                                  if s.error and s.error != "timed out"),
            "serve.max_rps": self.max_rps,
            "simulator.check_s": self.sim["check_s"],
            "simulator.cycles_per_s": self.sim["cycles_per_s"],
            "loadgen.late_ms": serving.latency_summary(self.windows)["late_s"]
            * 1e3,
            "trace.overhead_frac": self.trace_overhead,
        }

    # -- determinism record --------------------------------------------------

    def check_repeats(self, metrics: dict[str, float]) -> dict[str, Any]:
        """Compare this run's deterministic counts with earlier runs of the
        same compiler sources, workload, seed and mode in this checkout; a
        count that changed is a failure."""
        if self.trace:
            counts = {k: v for k, v in metrics.items()
                      if PER_LAYER_UNITS[k] == "count"}
        else:
            counts = {k: metrics[k]
                      for k in ("sim_cycles", "code_words", "compile_kcalls")}
        key = ":".join((source_digest(self.root), self.workload.name,
                        str(self.seed), str(self.seconds),
                        str(int(self.trace)), str(self.programs or "all")))
        path = os.path.join(self.root, OUT_DIR, "deterministic.json")
        try:
            with open(path) as handle:
                records = json.load(handle)
        except (OSError, ValueError):
            records = {}
        previous = records.get(key)
        changed = [] if previous is None else sorted(
            k for k in counts if previous[k] != counts[k]
        )
        for k in changed:
            self.ledger.fail(f"deterministic count {k} changed:"
                             f" {previous[k]} -> {counts[k]}")
        if previous is None and self.corrupt is None:
            records[key] = counts
            with open(path, "w") as handle:
                json.dump(records, handle, indent=1, sort_keys=True)
        return {"counts": counts,
                "compared_with_earlier_run": previous is not None,
                "repeated": not changed}


def source_digest(root: str) -> str:
    """A hash of the compiler's and the benchmark's sources: counts are
    compared only between runs of the same code."""
    digest = hashlib.sha256()
    paths = glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True)
    paths += glob.glob(os.path.join(root, "perfbench", "*.py"))
    for path in sorted(paths):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def run(
    root: str,
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    import_s: float,
    corrupt: Optional[str] = None,
    programs: Optional[int] = None,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run one workload; returns ``(result line, details)``."""
    started = time.perf_counter()
    r = Run(root, workload, seed, seconds, trace, import_s, corrupt, programs)
    try:
        r.setup()
        r.first_pass()
        r.measure_traced() if trace else r.measure()
        r.loop.control("shutdown")
    finally:
        r.close()
    if trace:
        r.replay_hit_path()
        values, units = r.per_layer(), PER_LAYER_UNITS
        spans = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
        r.tracer.write(os.path.join(root, spans))
        r.details["spans_file"] = spans
        r.details["self_seconds_by_span"] = {
            k: round(v, 6) for k, v in r.tracer.self_time_by_name().items()
        }
    else:
        values, units = r.end_to_end(), END_TO_END_UNITS
    r.details["deterministic"] = r.check_repeats(values)
    ledger = r.ledger
    r.details.update({
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "server_argv": ["python", "-m", "repro", "serve", *SERVER_FLAGS],
        "offered_rate_rps": RATE,
        "latency_limit_ms": LIMIT_MS,
        "compile_programs": len(r.items),
        "compile_passes_s": r.half.passes,
        "served_programs": len(r.served),
        "failed_frac": ledger.failed_frac,
        "failures": ledger.reasons,
        "simulated": r.sim["rows"],
        "run_wall_s": time.perf_counter() - started,
    })
    result = {
        "correct": ledger.failed == 0,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, r.details
