"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload suite --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it summarises the run; the full details (per-program rows,
sweep steps, tail percentiles, environment) go to
``.perfbench/result-<workload>-seed<seed>-trace<trace>.json``.  The exit
code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Python call counts depend on string-hash order, so every process of a
#: run (this one and the server) uses one fixed hash seed.
HASH_SEED = "0"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["suite", "exact"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument(
        "--corrupt", choices=["cell", "code_size"], default=None,
        help="corrupt one reference value (a final-memory cell or a served"
             " program's code_size) to prove the checks fail the run",
    )
    parser.add_argument(
        "--programs", type=int, default=None, metavar="N",
        help="cap the compile and served sets at N programs (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no compiler sources under {ROOT}/src/repro;"
              " run from a full checkout", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *argv], env)
    os.chdir(ROOT)
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

    t0 = time.perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    import repro.exact  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.simulator  # noqa: F401
    from perfbench import bench
    import_s = time.perf_counter() - t0

    result, details = bench.run(
        ROOT, args.workload, args.seed, args.seconds, bool(args.trace),
        import_s, corrupt=args.corrupt, programs=args.programs,
    )
    path = os.path.join(
        bench.OUT_DIR,
        f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
    )
    with open(path, "w") as handle:
        json.dump({"result": result, "details": details}, handle, indent=1)
    summary = {k: v for k, v in details.items() if k != "simulated"}
    summary["details_file"] = path
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
