"""Parallel batch compilation with a content-addressed schedule cache.

* :mod:`repro.batch.driver` — ``compile_many(sources, machine, jobs=N)``:
  a thread pool with per-program fault isolation (one failing program
  yields a structured :class:`CompileError` record instead of killing the
  batch) and input-order results.
* :mod:`repro.batch.pool` — ``WorkerPool``, the ``repro.serve`` compile
  service's persistent thread pool, with queue-depth/utilization
  accounting.
* :mod:`repro.batch.cache` — a schedule cache keyed on the SHA-256 of
  (IR fingerprint, machine fingerprint, policy fingerprint), with an
  in-memory layer plus an on-disk backend under ``.repro_cache/`` and
  hit/miss counters.
"""

from repro.batch.cache import (
    DEFAULT_CACHE_DIR,
    ScheduleCache,
    cache_key,
    fingerprint_machine,
    fingerprint_policy,
    fingerprint_program,
)
from repro.batch.driver import (
    BatchReport,
    CompileError,
    CompileResult,
    compile_many,
    compile_one,
    run_many,
)
from repro.batch.pool import WorkerPool

__all__ = [
    "BatchReport",
    "CompileError",
    "CompileResult",
    "DEFAULT_CACHE_DIR",
    "ScheduleCache",
    "WorkerPool",
    "cache_key",
    "compile_many",
    "compile_one",
    "fingerprint_machine",
    "fingerprint_policy",
    "fingerprint_program",
    "run_many",
]
