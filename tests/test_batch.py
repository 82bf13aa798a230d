"""The parallel batch driver: parallelism must be invisible, failures
must be isolated, and the report must account for every input.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import WARP
from repro.batch import (
    BatchReport,
    CompileError,
    ScheduleCache,
    compile_many,
    compile_one,
)
from repro.core.display import disassemble
from repro.machine import make_warp
from repro.simulator import run_and_check
from repro.workloads import generate_suite

SUITE = generate_suite()

BAD_SOURCE = "function broken(; begin end."


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    indices=st.lists(
        st.integers(min_value=0, max_value=len(SUITE) - 1),
        min_size=1, max_size=8, unique=True,
    )
)
def test_parallel_compilation_matches_serial(indices):
    """jobs=4 must be byte-identical to jobs=1 on any suite subset."""
    programs = [SUITE[i] for i in indices]
    serial = compile_many(programs, WARP, jobs=1)
    parallel = compile_many(programs, WARP, jobs=4)
    assert [r.name for r in serial] == [r.name for r in parallel]
    for s, p in zip(serial, parallel):
        assert s.ok and p.ok
        assert disassemble(s.compiled.code) == disassemble(p.compiled.code)
        assert s.compiled.report() == p.compiled.report()


def test_results_preserve_submission_order():
    programs = list(reversed(SUITE[:10]))
    batch = compile_many(programs, WARP, jobs=4)
    assert [r.name for r in batch] == [p.name for p in programs]


class TestFaultIsolation:
    def test_register_exhaustion_is_isolated(self):
        """On a 6-register machine most suite programs exhaust registers;
        each failure must become its own structured error record while the
        schedulable programs still compile and validate."""
        tiny = make_warp(num_registers=6)
        batch = compile_many(SUITE, tiny, jobs=4)
        assert len(batch) == len(SUITE)
        ok = batch.ok_results
        failed = [r for r in batch if not r.ok]
        assert ok and failed, "expected a mix of successes and failures"
        for result in failed:
            error = result.error
            assert isinstance(error, CompileError)
            assert error.name == result.name
            assert error.error_type == "RegisterPressureError"
            assert "register" in error.message.lower()
            assert error.phase  # the observability layer names the phase
        # A surviving program is genuinely usable, not collateral damage.
        run_and_check(ok[0].compiled.code)

    def test_syntax_error_is_isolated(self):
        sources = [SUITE[0], ("broken", BAD_SOURCE), SUITE[1]]
        batch = compile_many(sources, WARP, jobs=2)
        assert [r.ok for r in batch] == [True, False, True]
        error = batch[1].error
        assert error.name == "broken"
        assert error.phase == "frontend"
        assert error.traceback  # full traceback retained for debugging

    def test_error_record_is_json_ready(self):
        batch = compile_many([("broken", BAD_SOURCE)], WARP)
        payload = batch.to_dict()
        assert payload["ok"] == 0
        [entry] = payload["errors"]
        assert entry["name"] == "broken"
        assert entry["error_type"]
        assert "summary" not in entry or isinstance(entry["summary"], str)

    def test_compile_one_never_raises_for_bad_source(self):
        result = compile_one("broken", BAD_SOURCE, WARP)
        assert not result.ok
        assert result.compiled is None
        assert isinstance(result.error, CompileError)


class TestBatchReport:
    def test_summary_counts(self):
        batch = compile_many(SUITE[:5], WARP, jobs=2)
        assert isinstance(batch, BatchReport)
        assert "5/5 programs compiled" in batch.summary()
        assert batch.to_dict()["jobs"] == 2

    def test_cache_accounting(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        cold = compile_many(SUITE[:6], WARP, jobs=2, cache=cache)
        warm = compile_many(SUITE[:6], WARP, jobs=2, cache=cache)
        assert cold.cache_hits == 0 and cold.cache_misses == 6
        assert warm.cache_hits == 6 and warm.cache_hit_rate == 1.0
        assert "cache 6 hits" in warm.summary()

    def test_stats_collection(self):
        batch = compile_many(SUITE[:2], WARP, collect_stats=True)
        for result in batch:
            assert result.stats is not None
            assert "phases" in result.stats and "counters" in result.stats
            assert result.stats["counters"].get("loops", 0) >= 1

    def test_to_dict_sums_stats(self):
        batch = compile_many(SUITE[:3], WARP, collect_stats=True)
        payload = batch.to_dict()
        per_program = [r.stats for r in batch]
        assert payload["counters"]["ii_attempts"] == sum(
            s["counters"]["ii_attempts"] for s in per_program
        ) > 0
        assert payload["phases"]["emit"]["calls"] == sum(
            s["phases"]["emit"]["calls"] for s in per_program
        )
        assert payload["phases"]["emit"]["seconds"] > 0
        json.dumps(payload)

    def test_to_dict_omits_stats_when_not_collected(self):
        payload = compile_many(SUITE[:1], WARP).to_dict()
        assert "phases" not in payload and "counters" not in payload

    def test_invalid_source_shape_rejected(self):
        with pytest.raises(TypeError):
            compile_many([42], WARP)
