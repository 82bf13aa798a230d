"""Where each parallel job runs, and the repro.perf benchmark suite.

Batch compilation runs on threads, the fuzz campaign on processes when
``jobs > 1``; neither takes a backend knob.  The process-run campaign
must be invisible in its results: same cases, same order, same outcomes
as an inline run.  A cache never crosses a process boundary; separate
processes share only its directory.  The benchmark suite must emit a
stable report schema and its regression comparison must catch slowdowns.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro import WARP
from repro.audit.fuzz import run_campaign
from repro.batch import ScheduleCache, compile_many
from repro.workloads import generate_suite

SUITE = generate_suite()
SRC = Path(__file__).resolve().parent.parent / "src"


def _run_python(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run(
        [sys.executable, *args], env=env, check=True, capture_output=True,
        timeout=300,
    )


class TestProcessCompilation:
    def test_process_shares_disk_cache(self, tmp_path):
        """Entries another process wrote are hits here: the disk layer's
        atomic writes are what separate CLI processes share."""
        cache_dir = tmp_path / "cache"
        _run_python("-m", "repro", "suite", "--count", "4",
                    "--cache-dir", str(cache_dir))
        rerun = compile_many(
            SUITE[:4], WARP, jobs=2, cache=ScheduleCache(cache_dir)
        )
        assert rerun.cache_hits == 4


class TestCachePickling:
    @pytest.mark.parametrize("path", [None, "cache"])
    def test_cache_does_not_pickle(self, tmp_path, path):
        cache = ScheduleCache(None if path is None else tmp_path / path)
        with pytest.raises(TypeError):
            pickle.dumps(cache)


class TestFuzzBackends:
    def test_process_campaign_matches_inline(self):
        inline = run_campaign(seed=31, count=6, graphs=3, jobs=1)
        process = run_campaign(seed=31, count=6, graphs=3, jobs=3)
        assert process.jobs == 3
        assert [r.case for r in inline.results] == \
            [r.case for r in process.results]
        assert [len(r.violations) for r in inline.results] == \
            [len(r.violations) for r in process.results]
        assert [r.error for r in inline.results] == \
            [r.error for r in process.results]
        assert inline.counters == process.counters

    def test_fixed_seed_smoke_is_clean(self):
        """The committed fixed-seed differential fuzz smoke: zero
        violations on two processes."""
        report = run_campaign(seed=1988, count=10, graphs=5, jobs=2)
        assert not report.failures, [str(v) for v in report.violations]

    def test_no_backend_parameter(self):
        with pytest.raises(TypeError):
            run_campaign(count=1, graphs=0, backend="process")


def test_library_import_leaves_multiprocessing_out():
    """Only the fuzz campaign needs processes, and it imports them when
    it runs: importing the library, the service, the exact backend and
    the simulator loads no ``multiprocessing``."""
    code = (
        "import sys\n"
        "import repro, repro.serve, repro.exact, repro.simulator\n"
        "assert 'multiprocessing' not in sys.modules, sorted(\n"
        "    name for name in sys.modules if name.startswith('multi'))\n"
    )
    _run_python("-c", code)


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.perf import run_benchmarks

        return run_benchmarks(quick=True, jobs=2)

    def test_schema(self, report):
        payload = report.to_dict()
        assert payload["version"] == 1
        assert payload["cpu_count"] >= 1
        assert set(payload["benchmarks"]) == {
            "closure", "scheduler", "optimality", "suite", "loadgen",
        }
        for name in ("closure", "scheduler", "optimality", "suite",
                     "loadgen"):
            entry = payload["benchmarks"][name]
            assert entry["units"] > 0
            assert entry["per_unit_seconds"] > 0

    def test_optimality_gap_metric(self, report):
        entry = report.benchmarks["optimality"]
        assert entry["violations"] == 0
        gap = entry["optimality_gap"]
        assert gap["checked"] == entry["units"]
        assert sum(
            gap[name]
            for name in ("optimal", "gap", "decline_confirmed",
                         "decline_missed", "budget", "violation")
        ) == gap["checked"]
        assert 0.0 <= gap["at_optimum_fraction"] <= 1.0
        assert gap["mean_gap"] >= 0.0
        assert gap["max_gap"] >= 0

    def test_loadgen_metrics(self, report):
        loadgen = report.benchmarks["loadgen"]
        assert loadgen["failures"] == 0
        assert 0.0 < loadgen["p50_seconds"] <= loadgen["p99_seconds"] \
            <= loadgen["max_seconds"]
        assert loadgen["throughput_rps"] > 0
        assert 0.0 <= loadgen["cache_hit_rate"] <= 1.0
        assert loadgen["units"] == loadgen["clients"] * \
            loadgen["requests_per_client"]

    def test_suite_phase_split(self, report):
        """``suite`` splits its compile time by phase from an untimed
        stats pass, reported per program."""
        phases = report.benchmarks["suite"]["phases"]
        for name in ("frontend", "verify", "deps", "ii_attempt", "mve",
                     "emit"):
            assert phases[name] > 0, name
        assert "phases (ms/program)" in report.summary()

    def test_suite_phases_are_not_gated(self, report, tmp_path):
        """The observers add their own overhead, so only the timed pass's
        per-unit seconds is compared."""
        from repro.perf import compare_reports, write_report
        from repro.perf.bench import BenchReport

        baseline = tmp_path / "baseline.json"
        write_report(report, str(baseline))
        suite = report.benchmarks["suite"]
        slow_phases = BenchReport(
            quick=True, jobs=2, cpu_count=report.cpu_count,
            benchmarks={"suite": dict(suite, phases={
                name: seconds * 100 for name, seconds in suite["phases"].items()
            })},
        )
        assert compare_reports(str(baseline), slow_phases) == []

    def test_suite_counts_calls_per_program(self, report):
        suite = report.benchmarks["suite"]
        assert suite["kcalls_per_program"] > 1.0
        assert "kcalls/program" in report.summary()
        assert report.to_dict()["python"] == report.python

    def test_a_call_count_regression_is_flagged(self, report, tmp_path):
        """A count is exact, so 2% over the baseline fails the run; a
        baseline from another Python minor version is not compared."""
        from repro.perf import compare_reports, write_report
        from repro.perf.bench import BenchReport

        baseline = tmp_path / "baseline.json"
        write_report(report, str(baseline))
        suite = report.benchmarks["suite"]
        base = suite["kcalls_per_program"]

        def with_count(kcalls, python=report.python):
            return BenchReport(
                quick=True, jobs=2, cpu_count=report.cpu_count,
                benchmarks={"suite": dict(suite, kcalls_per_program=kcalls)},
                python=python,
            )

        assert compare_reports(str(baseline), with_count(base * 1.01)) == []
        flagged = compare_reports(str(baseline), with_count(base * 1.05))
        assert len(flagged) == 1
        assert flagged[0].startswith("suite:")
        assert "kcalls/program" in flagged[0]
        assert compare_reports(
            str(baseline), with_count(base * 1.05, python="2.7")
        ) == []

    def test_summary_mentions_every_benchmark(self, report):
        text = report.summary()
        for word in ("closure", "scheduler", "optimality", "suite",
                     "loadgen"):
            assert word in text

    def test_self_comparison_is_clean(self, report, tmp_path):
        from repro.perf import compare_reports, write_report

        baseline = tmp_path / "baseline.json"
        write_report(report, str(baseline))
        assert compare_reports(str(baseline), report) == []

    def test_regression_detected(self, report, tmp_path):
        from repro.perf import compare_reports, write_report
        from repro.perf.bench import BenchReport

        baseline = tmp_path / "baseline.json"
        write_report(report, str(baseline))
        slow = BenchReport(
            quick=True, jobs=2, cpu_count=report.cpu_count,
            benchmarks={
                name: dict(
                    entry,
                    per_unit_seconds=entry["per_unit_seconds"] * 3 + 1e-3,
                )
                for name, entry in report.benchmarks.items()
                if "per_unit_seconds" in entry
            },
        )
        regressions = compare_reports(str(baseline), slow)
        assert len(regressions) == 5
        assert any("closure" in line for line in regressions)
        assert any("optimality" in line for line in regressions)

    def test_written_report_is_valid_json(self, report, tmp_path):
        from repro.perf import load_report, write_report

        out = tmp_path / "BENCH_scheduler.json"
        write_report(report, str(out))
        assert load_report(str(out)) == report.to_dict()
        assert json.loads(out.read_text())["version"] == 1
