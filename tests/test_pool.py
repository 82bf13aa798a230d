"""The compile server's persistent thread pool (`repro.batch.pool`) and
the batch driver's thread-pool map.

A pool must survive across submissions (that is its reason to exist),
and its accounting must be sound because the compile service reports it
to clients.  A batch on threads must give what a serial batch gives, in
the same order, with the same fault isolation.
"""

import pytest

from repro import WARP
from repro.batch import WorkerPool, compile_many, run_many
from repro.workloads import generate_suite

SUITE = generate_suite()


def _double(x):
    return 2 * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestWorkerPool:
    def test_persists_across_submissions(self):
        with WorkerPool(jobs=2) as pool:
            first = [pool.submit(_double, i) for i in range(10)]
            executor = pool._executor
            second = [pool.submit(_double, i) for i in range(10, 20)]
            assert pool._executor is executor
            assert [f.result() for f in first + second] == \
                [2 * i for i in range(20)]
            stats = pool.stats()
            assert stats["submitted"] == 20
            assert stats["completed"] == 20
            assert stats["active"] == 0
            assert stats["started"] and not stats["closed"]

    def test_worker_exception_propagates(self):
        with WorkerPool(jobs=2) as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.submit(_boom, 1).result()
            assert pool.stats()["completed"] == 1

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_double, 1)

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(jobs=0)
        with pytest.raises(TypeError):
            WorkerPool(jobs=2, backend="thread")

    def test_utilization_bounds(self):
        pool = WorkerPool(jobs=4)
        assert pool.utilization == 0.0
        for future in [pool.submit(_double, i) for i in (1, 2, 3)]:
            future.result()
        assert 0.0 <= pool.utilization <= 1.0
        pool.close()


class TestRunManyValidation:
    def test_negative_jobs_rejected(self):
        """Regression: a negative ``jobs`` used to fall into the
        ``jobs <= 1`` inline path and silently serialise the batch."""
        with pytest.raises(ValueError, match="jobs must be >= 0"):
            run_many([1, 2, 3], _double, jobs=-1)
        with pytest.raises(ValueError, match="got -4"):
            run_many([1, 2, 3], _double, jobs=-4)

    def test_zero_and_one_job_run_inline(self):
        # Documented: 0 and 1 both mean "no pool, run on this thread".
        assert run_many([1, 2], lambda x: x + 1, jobs=0) == [2, 3]
        assert run_many([1, 2], lambda x: x + 1, jobs=1) == [2, 3]

    def test_empty_batch(self):
        assert run_many([], _double, jobs=4) == []
        assert run_many([], _double, jobs=0) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_many(list(range(10)), _boom, jobs=2)

    def test_no_backend_parameter(self):
        with pytest.raises(TypeError):
            run_many([1, 2], _double, jobs=2, backend="process")


class TestCompileManyWithPool:
    """``compile_many(jobs > 1)`` maps over a thread pool of its own."""

    def test_results_match_ephemeral_pools(self):
        from repro.core.display import disassemble

        programs = SUITE[:6]
        serial = compile_many(programs, WARP, jobs=1)
        pooled_a = compile_many(programs, WARP, jobs=2)
        pooled_b = compile_many(programs, WARP, jobs=2)
        assert [r.name for r in serial] == [r.name for r in pooled_a]
        for base, a, b in zip(serial, pooled_a, pooled_b):
            assert base.ok and a.ok and b.ok
            assert disassemble(base.compiled.code) == \
                disassemble(a.compiled.code) == disassemble(b.compiled.code)

    def test_report_jobs_reflects_pool(self):
        assert compile_many(SUITE[:4], WARP, jobs=3).jobs == 3
        assert compile_many(SUITE[:1], WARP, jobs=0).jobs == 1

    def test_fault_isolation_keeps_order(self):
        sources = []
        for i in range(24):
            if i % 8 == 3:
                sources.append((f"bad{i}", "function broken(; begin end."))
            else:
                sources.append((f"good{i}", SUITE[i % 4].source))
        report = compile_many(sources, WARP, jobs=2)
        assert [r.name for r in report] == [name for name, _ in sources]
        for i, result in enumerate(report):
            assert result.ok == (i % 8 != 3)

    def test_no_backend_or_pool_parameter(self):
        for knob in ({"backend": "thread"}, {"pool": None}):
            with pytest.raises(TypeError):
                compile_many(SUITE[:1], WARP, **knob)
