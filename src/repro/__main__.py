"""Command-line driver: compile, inspect, run, and batch-compile programs.

Usage::

    python -m repro compile program.w2 [--machine warp|simple] [--stats]
    python -m repro run program.w2 [--machine ...]     # simulate + validate
    python -m repro disasm program.w2                  # full code listing
    python -m repro ir program.w2                      # lowered IR
    python -m repro suite [--jobs 4] [--cache-dir .repro_cache] [--stats]
    python -m repro fuzz [--seed 1988] [--count 200] [--graphs 50] [--stats]
    python -m repro serve [--socket PATH | --host H --port P] [--jobs 4]
    python -m repro submit [files...] [--suite N] [--status] [--shutdown]

``--stats`` dumps the observability layer's JSON breakdown: per-phase
wall-clock timings (dependence build, MII bounds, each II attempt, MVE,
emission), counters (II attempts, SCCs, backtracks), and per-loop
achieved-II vs. MII gaps.  ``suite`` compiles the 72-program synthetic
suite through the parallel batch driver; with ``--cache-dir`` a rerun is a
hash lookup per program.  ``fuzz`` runs the randomized invariant-audit
campaign of :mod:`repro.audit`: seeded random programs through
compile->simulate differential testing plus per-loop schedule-oracle
audits, and seeded random dependence graphs straight through the modulo
scheduler; any failure prints the single-case seed that reproduces it.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import SIMPLE, WARP, CompilerPolicy
from repro.core.pipeliner import (
    EXACT_MAX_CONFLICTS,
    SCHEDULER_BACKENDS,
    SEARCH_POLICIES,
)
from repro.batch import ScheduleCache, compile_many, compile_one
from repro.core.display import disassemble
from repro.frontend import parse_program
from repro.ir import format_program
from repro.simulator import run_and_check
from repro.workloads import generate_suite

MACHINES = {"warp": WARP, "simple": SIMPLE}


def _policy(args: argparse.Namespace) -> CompilerPolicy:
    return CompilerPolicy(
        pipeline=not args.no_pipeline,
        search=args.search,
        cse=not args.no_cse,
        scheduler_backend=args.scheduler_backend,
        exact_max_conflicts=args.exact_max_conflicts,
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Software pipelining for VLIW machines (Lam, PLDI 1988)",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--machine", choices=sorted(MACHINES), default="warp",
        help="target machine description (default: warp)",
    )
    common.add_argument(
        "--no-pipeline", action="store_true",
        help="disable software pipelining (locally compacted baseline)",
    )
    common.add_argument(
        "--no-cse", action="store_true",
        help="disable local common-subexpression elimination",
    )
    common.add_argument(
        "--search", choices=SEARCH_POLICIES, default="linear",
        help="initiation-interval search strategy",
    )
    common.add_argument(
        "--scheduler-backend", choices=sorted(SCHEDULER_BACKENDS),
        default="heuristic",
        help="modulo scheduler: Lam's heuristic, or the exact SAT backend"
             " (starts from the heuristic's schedule and searches the"
             " smaller initiation intervals for the provable minimum)",
    )
    common.add_argument(
        "--exact-max-conflicts", type=int, default=EXACT_MAX_CONFLICTS,
        metavar="N",
        help="exact backend effort budget: solver conflicts per interval"
             " before keeping the heuristic's schedule"
             f" (default: {EXACT_MAX_CONFLICTS})",
    )
    stats = argparse.ArgumentParser(add_help=False)
    stats.add_argument(
        "--stats", action="store_true",
        help="dump the compiler's JSON phase/counter breakdown",
    )
    stats.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="enable the on-disk schedule cache rooted at DIR",
    )

    sub = parser.add_subparsers(dest="command", required=True)
    source_cmds = {
        "compile": "compile and print the loop report",
        "run": "compile, simulate, and validate against the interpreter",
        "disasm": "compile and print the full code listing",
        "ir": "print the lowered IR",
    }
    for command, help_text in source_cmds.items():
        parents = [common, stats] if command in ("compile", "run") else [common]
        cmd = sub.add_parser(command, parents=parents, help=help_text)
        cmd.add_argument(
            "source", help="W2-like source file ('-' for stdin)"
        )

    suite = sub.add_parser(
        "suite", parents=[common, stats],
        help="batch-compile the 72-program synthetic suite",
    )
    suite.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker threads/processes for the batch driver (default: 1)",
    )
    suite.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="worker-pool backend; 'process' sidesteps the GIL for"
             " CPU-bound batches (default: thread)",
    )
    suite.add_argument(
        "--count", type=int, default=72, metavar="N",
        help="compile only the first N suite programs",
    )

    fuzz = sub.add_parser(
        "fuzz", parents=[common],
        help="run the randomized scheduler-invariant audit campaign",
    )
    fuzz.add_argument(
        "--seed", type=int, default=1988, metavar="N",
        help="master seed; case i uses seed N+i (default: 1988)",
    )
    fuzz.add_argument(
        "--count", type=int, default=100, metavar="K",
        help="number of random program cases (default: 100)",
    )
    fuzz.add_argument(
        "--graphs", type=int, default=None, metavar="M",
        help="number of random dependence-graph cases (default: count/4)",
    )
    fuzz.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker threads/processes for the campaign (default: 1)",
    )
    fuzz.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="worker-pool backend; 'process' sidesteps the GIL for"
             " CPU-bound campaigns (default: thread)",
    )
    fuzz.add_argument(
        "--stats", action="store_true",
        help="dump the campaign's JSON violation/counter breakdown",
    )
    fuzz.add_argument(
        "--optimality", action="store_true",
        help="cross-check every graph case against the exact SAT backend:"
             " classify heuristic IIs as optimal/gap and declines as"
             " confirmed/missed",
    )

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the persistent async compile server (repro.serve)",
    )
    _add_endpoint_args(serve)
    serve.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="persistent worker-pool size (default: 4)",
    )
    serve.add_argument(
        "--backend", choices=["thread", "process"], default="thread",
        help="worker-pool backend; 'process' sidesteps the GIL on"
             " multi-core hosts (default: thread)",
    )
    serve.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="share an on-disk schedule cache rooted at DIR across"
             " clients and restarts (default: in-memory only)",
    )
    serve.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="backpressure bound: reject requests that would push the"
             " pool queue past N units (default: 1024)",
    )

    submit = sub.add_parser(
        "submit", parents=[common],
        help="submit programs to a running compile server",
    )
    _add_endpoint_args(submit)
    submit.add_argument(
        "sources", nargs="*", metavar="FILE",
        help="W2-like source files to compile remotely",
    )
    submit.add_argument(
        "--suite", type=int, default=None, metavar="N",
        help="compile the first N programs of the 72-program suite",
    )
    submit.add_argument(
        "--status", action="store_true",
        help="print the server's JSON stats reply",
    )
    submit.add_argument(
        "--shutdown", action="store_true",
        help="ask the server to drain in-flight work and exit",
    )
    submit.add_argument(
        "--disasm", action="store_true",
        help="include the full code listing in each result",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket timeout per reply line (default: 300)",
    )

    bench = sub.add_parser(
        "bench",
        help="run the scheduler microbenchmark suite (repro.perf)",
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="reduced repetitions/sizes for CI smoke runs",
    )
    bench.add_argument(
        "--only", default=None, metavar="NAMES",
        help="comma-separated benchmark subset"
             " (closure,scheduler,optimality,suite,backends,loadgen)",
    )
    bench.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the benchmark report JSON to PATH",
    )
    bench.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="compare against a baseline BENCH_*.json; exit nonzero on a"
             " >2x per-unit regression",
    )
    bench.add_argument(
        "--jobs", type=int, default=4, metavar="N",
        help="worker count for the backend-comparison benchmark"
             " (default: 4)",
    )
    bench.add_argument(
        "--profile", nargs="?", const="-", default=None, metavar="PATH",
        help="run the selected benchmarks under cProfile; print the top"
             " functions by cumulative time, or dump pstats data to PATH",
    )
    return parser


def _add_endpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--socket", default=None, metavar="PATH",
        help="unix-socket endpoint (default: .repro_serve.sock)",
    )
    parser.add_argument(
        "--host", default=None, metavar="HOST",
        help="TCP host to serve/connect on instead of a unix socket",
    )
    parser.add_argument(
        "--port", type=int, default=None, metavar="PORT",
        help="TCP port (required with --host)",
    )


def _read_source(args: argparse.Namespace) -> str:
    if args.source == "-":
        return sys.stdin.read()
    with open(args.source) as handle:
        return handle.read()


def _run_suite(args: argparse.Namespace) -> int:
    machine = MACHINES[args.machine]
    cache = ScheduleCache(args.cache_dir) if args.cache_dir else None
    programs = generate_suite()[: args.count]
    report = compile_many(
        programs, machine, args.policy,
        jobs=args.jobs, backend=args.backend,
        cache=cache, collect_stats=args.stats,
    )
    print(report.summary())
    for error in report.errors:
        print(f"error: {error}", file=sys.stderr)
    if args.stats:
        print(json.dumps(report.to_dict(), indent=2))
    return 1 if report.errors else 0


def _run_fuzz(args: argparse.Namespace) -> int:
    from repro.audit import run_campaign

    report = run_campaign(
        seed=args.seed,
        count=args.count,
        graphs=args.graphs,
        jobs=args.jobs,
        backend=args.backend,
        machine=MACHINES[args.machine],
        policy=args.policy,
        optimality=args.optimality,
    )
    print(report.summary())
    for result in report.failures:
        print(f"\nFAIL {result.case.name}  (repro: {result.case.repro_command()})",
              file=sys.stderr)
        for violation in result.violations:
            print(f"  {violation}", file=sys.stderr)
        if result.error:
            print(f"  crash:\n{result.error}", file=sys.stderr)
    if args.stats:
        print(json.dumps(report.to_dict(), indent=2))
    return 1 if report.failures else 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve import DEFAULT_SOCKET, CompileServer, ServeConfig

    if (args.host is None) != (args.port is None):
        print("error: --host and --port go together", file=sys.stderr)
        return 2
    config = ServeConfig(
        socket_path=None if args.host else (args.socket or DEFAULT_SOCKET),
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        backend=args.backend,
        cache_dir=args.cache_dir,
        machine=args.machine,
        policy=args.policy,
        max_pending=args.max_pending,
    )
    server = CompileServer(config)
    print(f"repro compile server listening on {config.endpoint}"
          f" (jobs={config.jobs}, backend={config.backend},"
          f" cache={'disk:' + config.cache_dir if config.cache_dir else 'memory'})")

    async def _serve() -> None:
        import signal

        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, server.request_shutdown)
            except NotImplementedError:  # pragma: no cover
                pass
        await server.run()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
    print("compile server drained and exited")
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    from repro.serve import DEFAULT_SOCKET, ServeClient, ServeClientError

    if (args.host is None) != (args.port is None):
        print("error: --host and --port go together", file=sys.stderr)
        return 2
    actions = [bool(args.sources), args.suite is not None,
               args.status, args.shutdown]
    if not any(actions):
        print("error: nothing to submit (give FILEs, --suite N, --status,"
              " or --shutdown)", file=sys.stderr)
        return 2
    policy = args.policy
    policy_wire = {
        "pipeline": policy.pipeline,
        "search": policy.search,
        "cse": policy.cse,
        "scheduler_backend": policy.scheduler_backend,
        "exact_max_conflicts": policy.exact_max_conflicts,
    }
    failures = 0
    try:
        with ServeClient(
            socket_path=None if args.host else (args.socket or DEFAULT_SOCKET),
            host=args.host, port=args.port, timeout=args.timeout,
        ) as client:
            for path in args.sources:
                with open(path) as handle:
                    source = handle.read()
                result = client.compile(
                    source, name=path, machine=args.machine,
                    policy=policy_wire, disasm=args.disasm,
                )
                failures += _print_submit_result(result, disasm=args.disasm)
            if args.suite is not None:
                results, done = client.suite(
                    args.suite, machine=args.machine,
                    policy=policy_wire, disasm=args.disasm,
                )
                for result in results:
                    failures += _print_submit_result(
                        result, disasm=args.disasm
                    )
                print(f"suite: {done.get('ok', 0)}/{done.get('programs', 0)}"
                      f" compiled in {done.get('seconds', 0.0):.3f}s,"
                      f" {done.get('errors', 0)} errors")
            if args.status:
                print(json.dumps(client.status(), indent=2, sort_keys=True))
            if args.shutdown:
                ack = client.shutdown()
                print(f"server draining"
                      f" ({ack.get('draining', 0)} in-flight requests)")
    except (OSError, ServeClientError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 1 if failures else 0


def _print_submit_result(result: dict, *, disasm: bool) -> int:
    """Print one streamed result; returns 1 for a failure, 0 otherwise."""
    name = result.get("name", "?")
    if result.get("ok"):
        cached = " (cached)" if result.get("from_cache") else ""
        print(f"{result['report']}{cached}")
        if disasm and "disasm" in result:
            print(result["disasm"])
        return 0
    error = result.get("error", {})
    print(f"error: {name}: {error.get('error_type', 'Error')}:"
          f" {error.get('message', '')}", file=sys.stderr)
    return 1


def _run_bench(args: argparse.Namespace) -> int:
    from repro.perf import run_benchmarks, write_report, compare_reports

    only = (
        tuple(name.strip() for name in args.only.split(",") if name.strip())
        if args.only else None
    )
    if args.profile is not None:
        # Profile-driven pass support: the same run, under cProfile.
        # Wall times in the report are inflated by tracing overhead, so a
        # profiled report is never written or compared — it exists to
        # show where the time goes, not how much of it there is.
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            report = run_benchmarks(
                quick=args.quick, jobs=args.jobs, only=only
            )
        finally:
            profiler.disable()
        print(report.summary())
        print("note: timings above include cProfile overhead;"
              " report not written/compared")
        if args.profile == "-":
            pstats.Stats(profiler).sort_stats("cumulative").print_stats(25)
        else:
            profiler.dump_stats(args.profile)
            print(f"wrote profile data to {args.profile}"
                  " (inspect with python -m pstats)")
        return 0
    report = run_benchmarks(quick=args.quick, jobs=args.jobs, only=only)
    print(report.summary())
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    if args.compare:
        regressions = compare_reports(args.compare, report)
        for line in regressions:
            print(f"regression: {line}", file=sys.stderr)
        return 1 if regressions else 0
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if "scheduler_backend" in args:
        try:
            args.policy = _policy(args)
        except ValueError as error:
            parser.error(str(error))

    if args.command == "suite":
        return _run_suite(args)
    if args.command == "fuzz":
        return _run_fuzz(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)

    try:
        text = _read_source(args)
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    machine = MACHINES[args.machine]

    if args.command == "ir":
        program, pragmas = parse_program(text)
        print(format_program(program))
        if pragmas.independent_arrays:
            print(f"independent arrays: "
                  f"{', '.join(sorted(pragmas.independent_arrays))}")
        return 0

    cache = (
        ScheduleCache(args.cache_dir)
        if getattr(args, "cache_dir", None)
        else None
    )
    collect_stats = bool(getattr(args, "stats", False))
    result = compile_one(
        args.source, text, machine, args.policy,
        cache=cache, collect_stats=collect_stats,
    )
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    compiled = result.compiled

    if args.command == "compile":
        print(compiled.report())
        if result.from_cache:
            print("(served from the schedule cache)")
        if args.stats:
            print(json.dumps(result.stats, indent=2))
        return 0
    if args.command == "disasm":
        print(disassemble(compiled.code))
        return 0

    # run: simulate and cross-validate against the reference interpreter.
    print(compiled.report())
    stats = run_and_check(compiled.code)
    print(f"\n{stats.cycles} cycles at {machine.clock_mhz:g} MHz"
          f" ({stats.seconds * 1e3:.3f} ms)")
    print(f"{stats.flops} floating-point operations ->"
          f" {stats.mflops:.2f} MFLOPS")
    print(f"ops {stats.operations}, loads {stats.loads},"
          f" stores {stats.stores}, branches {stats.branches}")
    if args.stats:
        print(json.dumps(result.stats, indent=2))
    print("result validated against the sequential interpreter")
    return 0


if __name__ == "__main__":
    sys.exit(main())
