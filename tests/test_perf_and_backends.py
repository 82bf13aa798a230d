"""The process-pool batch backend and the repro.perf benchmark suite.

The process backend must be semantically invisible: same results, same
order, same fault isolation as the thread backend — only the executor
changes.  The benchmark suite must emit a stable report schema and its
regression comparison must catch slowdowns without tripping on the
machine-dependent backend speedup.
"""

import json
import pickle

import pytest

from repro import WARP
from repro.audit.fuzz import run_campaign
from repro.batch import ScheduleCache, compile_many
from repro.batch.driver import run_many
from repro.core.display import disassemble
from repro.workloads import generate_suite

SUITE = generate_suite()

BAD_SOURCE = "function broken(; begin end."


def _double(x):
    return 2 * x


class TestRunManyBackends:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown batch backend"):
            run_many([1], _double, jobs=2, backend="greenlet")

    def test_process_preserves_submission_order(self):
        items = list(range(20))
        assert run_many(items, _double, jobs=4, backend="process") == [
            2 * i for i in items
        ]

    def test_single_job_runs_inline_for_any_backend(self):
        # jobs=1 never spins up a pool, so even unpicklable workers are
        # fine with backend="process".
        assert run_many([1, 2], lambda x: x + 1, jobs=1, backend="process") \
            == [2, 3]


class TestProcessCompilation:
    def test_process_matches_thread(self):
        programs = SUITE[:8]
        thread = compile_many(programs, WARP, jobs=4, backend="thread")
        process = compile_many(programs, WARP, jobs=4, backend="process")
        assert [r.name for r in thread] == [r.name for r in process]
        for t, p in zip(thread, process):
            assert t.ok and p.ok
            assert disassemble(t.compiled.code) == disassemble(p.compiled.code)

    def test_process_fault_isolation(self):
        sources = [("good", SUITE[0].source), ("bad", BAD_SOURCE),
                   ("also_good", SUITE[1].source)]
        report = compile_many(sources, WARP, jobs=3, backend="process")
        assert [r.name for r in report] == ["good", "bad", "also_good"]
        assert report[0].ok and report[2].ok
        assert not report[1].ok
        assert report[1].error.error_type

    def test_process_shares_disk_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = compile_many(
            SUITE[:4], WARP, jobs=1, cache=ScheduleCache(cache_dir)
        )
        assert warm.cache_misses == 4
        rerun = compile_many(
            SUITE[:4], WARP, jobs=2, backend="process",
            cache=ScheduleCache(cache_dir),
        )
        assert rerun.cache_hits == 4


class TestCachePickling:
    def test_roundtrip_drops_process_local_state(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        cache.hits, cache.misses = 3, 5
        cache._memory["bogus"] = object()
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.path == cache.path
        assert clone.hits == 0 and clone.misses == 0
        assert clone._memory == {}

    def test_memory_only_cache_roundtrips(self):
        clone = pickle.loads(pickle.dumps(ScheduleCache(None)))
        assert clone.path is None


class TestFuzzBackends:
    def test_process_campaign_matches_thread(self):
        thread = run_campaign(seed=31, count=6, graphs=3, jobs=3)
        process = run_campaign(
            seed=31, count=6, graphs=3, jobs=3, backend="process"
        )
        assert [r.case for r in thread.results] == \
            [r.case for r in process.results]
        assert [len(r.violations) for r in thread.results] == \
            [len(r.violations) for r in process.results]
        assert [r.error is None for r in thread.results] == \
            [r.error is None for r in process.results]

    def test_fixed_seed_smoke_is_clean(self):
        """The committed fixed-seed differential fuzz smoke: zero
        violations under the process backend."""
        report = run_campaign(
            seed=1988, count=10, graphs=5, jobs=2, backend="process"
        )
        assert not report.failures, [str(v) for v in report.violations]


class TestBenchReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.perf import run_benchmarks

        return run_benchmarks(quick=True, jobs=2)

    def test_schema(self, report):
        payload = report.to_dict()
        assert payload["version"] == 1
        assert payload["cpu_count"] >= 1
        for name in ("closure", "scheduler", "optimality", "suite",
                     "backends", "loadgen"):
            assert name in payload["benchmarks"], name
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

    def test_backend_comparison_runs_all_three_legs(self, report):
        backends = report.benchmarks["backends"]
        assert backends["thread_seconds"] > 0
        assert backends["process_seconds"] > 0
        assert backends["process_percall_seconds"] > 0
        assert backends["batches"] > 1
        assert backends["failures"] == 0
        # The speedup measures per-call pool spawn/teardown amortised away
        # by the persistent pool — that win does not need extra cores.
        assert backends["process_speedup"] > 1.0

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
                     "backends", "loadgen"):
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

    def test_backend_speedup_never_flags_regression(self, report, tmp_path):
        """The machine-dependent backend speedup is informational only."""
        from repro.perf import compare_reports, write_report
        from repro.perf.bench import BenchReport

        baseline = tmp_path / "baseline.json"
        write_report(report, str(baseline))
        slow_backends = BenchReport(
            quick=True, jobs=2, cpu_count=report.cpu_count,
            benchmarks={
                "backends": dict(
                    report.benchmarks["backends"], process_speedup=0.01
                )
            },
        )
        assert compare_reports(str(baseline), slow_backends) == []

    def test_written_report_is_valid_json(self, report, tmp_path):
        from repro.perf import load_report, write_report

        out = tmp_path / "BENCH_scheduler.json"
        write_report(report, str(out))
        assert load_report(str(out)) == report.to_dict()
        assert json.loads(out.read_text())["version"] == 1
