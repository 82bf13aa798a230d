"""The benchmark's own tests: tiny runs of every workload, the failure path
of the output checks, and the refusal to run without compiler sources.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench.measure import tail

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)

#: Per workload, a program cap that keeps a smoke run to a few seconds.
TINY = {"suite": 4, "exact": 3}


def run_bench(*args: str, cwd: str = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, RUN, *args], cwd=cwd,
        capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def tiny_run(workload: str, trace: int, *extra: str) -> tuple[int, dict]:
    code, lines = run_bench(
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace), "--programs", str(TINY[workload]), *extra,
    )
    return code, json.loads(lines[-1])


def test_benchmark_json_names_known_workloads():
    from perfbench.workloads import WORKLOADS

    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_prints_every_metric(workload, trace):
    code, result = tiny_run(workload, trace)
    assert code == 0, result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {
        name: entry["unit"] for name, entry in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize("corrupt", ["cell", "code_size"])
def test_corrupted_reference_fails_the_run(corrupt):
    code, result = tiny_run("suite", 0, "--corrupt", corrupt)
    assert code != 0
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_the_compiler(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = run_bench("--workload", "suite", "--seed", "1",
                            "--seconds", "1", "--trace", "0",
                            cwd=str(tmp_path))
    assert code != 0
    assert lines == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, count = tail(range(1, 1001))
    assert (value, pct, count) == (990, 99.0, 1000)
    value, pct, _ = tail(range(1, 201))
    assert pct == 95.0 and 200 - value >= 10
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)
