"""Parallel batch compilation with a content-addressed schedule cache.

* :mod:`repro.batch.driver` — ``compile_many(sources, machine, jobs=N)``:
  a `concurrent.futures` worker pool (thread or process backend, see
  ``BACKENDS``) with per-program fault isolation (one failing program
  yields a structured :class:`CompileError` record instead of killing the
  batch) and input-order results.
* :mod:`repro.batch.pool` — ``WorkerPool``, the persistent executor layer:
  one warm thread/process pool reused across ``run_many``/``compile_many``
  calls (and by the ``repro.serve`` compile service), with chunked
  submission for small work items and queue-depth/utilization accounting.
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
from repro.batch.pool import (
    BACKENDS,
    WorkerPool,
    chunk_size,
)

__all__ = [
    "BACKENDS",
    "BatchReport",
    "CompileError",
    "CompileResult",
    "DEFAULT_CACHE_DIR",
    "ScheduleCache",
    "WorkerPool",
    "cache_key",
    "chunk_size",
    "compile_many",
    "compile_one",
    "fingerprint_machine",
    "fingerprint_policy",
    "fingerprint_program",
    "run_many",
]
