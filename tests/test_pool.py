"""The persistent worker-pool layer (`repro.batch.pool`).

A pool must survive across ``run_many``/``compile_many`` calls (that is
its reason to exist), chunked submission must be invisible in results
(same order, same fault isolation), and the accounting must be sound
because the compile service reports it to clients.
"""

import pytest

from repro import WARP
from repro.batch import (
    WorkerPool,
    chunk_size,
    compile_many,
    run_many,
)
from repro.batch.pool import MAX_CHUNK_ITEMS
from repro.workloads import generate_suite

SUITE = generate_suite()


def _double(x):
    return 2 * x


def _boom(x):
    raise RuntimeError(f"boom {x}")


class TestChunkSize:
    def test_small_batches_stay_per_item(self):
        assert chunk_size(1, 4) == 1
        assert chunk_size(8, 4) == 1

    def test_large_batches_amortise(self):
        size = chunk_size(72, 4)
        assert 2 <= size <= MAX_CHUNK_ITEMS

    def test_cap(self):
        assert chunk_size(100_000, 1) == MAX_CHUNK_ITEMS

    def test_never_zero(self):
        for n in range(1, 50):
            for jobs in range(1, 9):
                assert chunk_size(n, jobs) >= 1


class TestWorkerPool:
    def test_persists_across_run_many_calls(self):
        with WorkerPool(jobs=2, backend="thread") as pool:
            first = run_many(list(range(10)), _double, pool=pool)
            second = run_many(list(range(10, 20)), _double, pool=pool)
            assert first == [2 * i for i in range(10)]
            assert second == [2 * i for i in range(10, 20)]
            stats = pool.stats()
            assert stats["batches"] == 2
            assert stats["completed"] == stats["submitted"] > 0
            assert stats["active"] == 0

    def test_process_backend_persists(self):
        with WorkerPool(jobs=2, backend="process") as pool:
            for _ in range(3):
                assert run_many([1, 2, 3], _double, pool=pool) == [2, 4, 6]
            assert pool.stats()["batches"] == 3

    def test_chunked_submission_preserves_order(self):
        items = list(range(150))
        with WorkerPool(jobs=4, backend="thread") as pool:
            assert pool.run(items, _double) == [2 * i for i in items]
            # 150 items on 4 workers must have been chunked.
            assert pool.stats()["submitted"] < len(items)

    def test_worker_exception_propagates(self):
        with WorkerPool(jobs=2, backend="thread") as pool:
            with pytest.raises(RuntimeError, match="boom"):
                pool.run(list(range(40)), _boom)

    def test_closed_pool_rejects_work(self):
        pool = WorkerPool(jobs=2)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_double, 1)

    def test_validates_construction(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(jobs=0)
        with pytest.raises(ValueError, match="unknown batch backend"):
            WorkerPool(backend="greenlet")

    def test_utilization_bounds(self):
        pool = WorkerPool(jobs=4)
        assert pool.utilization == 0.0
        pool.run([1, 2, 3], _double)
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
        with WorkerPool(jobs=2) as pool:
            assert run_many([], _double, pool=pool) == []


class TestCompileManyWithPool:
    def test_results_match_ephemeral_pools(self):
        from repro.core.display import disassemble

        programs = SUITE[:6]
        baseline = compile_many(programs, WARP, jobs=2)
        with WorkerPool(jobs=2, backend="thread") as pool:
            pooled_a = compile_many(programs, WARP, pool=pool)
            pooled_b = compile_many(programs, WARP, pool=pool)
        for base, a, b in zip(baseline, pooled_a, pooled_b):
            assert base.ok and a.ok and b.ok
            assert disassemble(base.compiled.code) == \
                disassemble(a.compiled.code) == disassemble(b.compiled.code)

    def test_report_jobs_reflects_pool(self):
        with WorkerPool(jobs=3, backend="thread") as pool:
            report = compile_many(SUITE[:4], WARP, pool=pool)
        assert report.jobs == 3

    def test_fault_isolation_survives_chunking(self):
        sources = []
        for i in range(24):
            if i % 8 == 3:
                sources.append((f"bad{i}", "function broken(; begin end."))
            else:
                sources.append((f"good{i}", SUITE[i % 4].source))
        with WorkerPool(jobs=2, backend="thread") as pool:
            report = compile_many(sources, WARP, pool=pool)
        assert [r.name for r in report] == [name for name, _ in sources]
        for i, result in enumerate(report):
            assert result.ok == (i % 8 != 3)

    def test_process_pool_compiles(self):
        from repro.core.display import disassemble

        baseline = compile_many(SUITE[:4], WARP, jobs=1)
        with WorkerPool(jobs=2, backend="process") as pool:
            pooled = compile_many(SUITE[:4], WARP, pool=pool)
        for base, pro in zip(baseline, pooled):
            assert base.ok and pro.ok
            assert disassemble(base.compiled.code) == \
                disassemble(pro.compiled.code)
