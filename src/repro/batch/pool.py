"""Persistent worker pools for the batch substrate.

The original ``run_many`` spun up a fresh ``concurrent.futures`` executor
per call.  That is fine for one big batch, but a stream of small batches —
the compile-service pattern, where every client request is a handful of
programs — pays the pool-spawn price (process fork, manager thread, queue
setup, teardown join) on every call.  On the committed benchmark box that
left the process backend at barely above parity with threads.

:class:`WorkerPool` keeps one executor alive across any number of
``run_many``/``compile_many`` calls.  It also carries the bookkeeping a
long-lived service needs: submitted/completed task counts, the number of
in-flight tasks (the queue depth), and a utilization figure, all exposed
through :meth:`stats` and served by ``repro.serve``'s ``status`` reply.
Callers create a pool and pass it down; its owner closes it.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence

#: Accepted ``backend`` values for the batch substrate.
BACKENDS = ("thread", "process")

#: Chunked submission aims for this many chunks per worker, so the pool
#: stays load-balanced while per-task overhead (one pickled worker +
#: future round-trip per chunk instead of per item) is amortised.
CHUNKS_PER_WORKER = 4

#: Upper bound on items per chunk: past this, a lost worker or an
#: exception would take too many neighbours down with it.
MAX_CHUNK_ITEMS = 32


def chunk_size(n_items: int, jobs: int) -> int:
    """Items per submitted chunk for a batch of ``n_items`` on ``jobs``
    workers.  Small batches stay one-item-per-task (nothing to amortise);
    large batches are split into roughly ``CHUNKS_PER_WORKER`` chunks per
    worker, capped at ``MAX_CHUNK_ITEMS``."""
    if n_items <= jobs * 2:
        return 1
    per_chunk = -(-n_items // (jobs * CHUNKS_PER_WORKER))  # ceil div
    return max(1, min(MAX_CHUNK_ITEMS, per_chunk))


def run_chunk(worker: Callable[[Any], Any], chunk: Sequence[Any]) -> list[Any]:
    """Module-level chunk runner (picklable for the process backend)."""
    return [worker(item) for item in chunk]


class WorkerPool:
    """A persistent thread or process pool with service-grade accounting.

    The executor is created lazily on first submission and survives until
    :meth:`close` (or context-manager exit).
    """

    def __init__(self, jobs: int = 4, backend: str = "thread"):
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown batch backend {backend!r}; expected one of {BACKENDS}"
            )
        if jobs < 1:
            raise ValueError(f"WorkerPool needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self.backend = backend
        self._executor: Optional[Any] = None
        self._lock = threading.Lock()
        self._closed = False
        self.submitted = 0
        self.completed = 0
        self.batches = 0

    # -- executor lifecycle --------------------------------------------------

    def _ensure_executor(self):
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                cls = (
                    ThreadPoolExecutor
                    if self.backend == "thread"
                    else ProcessPoolExecutor
                )
                self._executor = cls(max_workers=self.jobs)
            return self._executor

    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, wait: bool = True) -> None:
        """Shut the executor down; the pool cannot be reused afterwards."""
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ----------------------------------------------------------

    def submit(self, fn: Callable[..., Any], /, *args: Any, **kwargs: Any) -> Future:
        """Submit one task; the returned future is a plain
        ``concurrent.futures.Future`` (wrap with ``asyncio.wrap_future``
        from an event loop)."""
        executor = self._ensure_executor()
        future = executor.submit(fn, *args, **kwargs)
        with self._lock:
            self.submitted += 1
        future.add_done_callback(self._on_done)
        return future

    def _on_done(self, _future: Future) -> None:
        with self._lock:
            self.completed += 1

    def run(self, items: Sequence[Any], worker: Callable[[Any], Any]) -> list[Any]:
        """Ordered map over ``items``, submitted in :func:`chunk_size`
        chunks.  Results align with input order; a worker exception
        propagates to the caller exactly as it would from
        ``Future.result()`` on the per-item path.
        """
        items = list(items)
        if not items:
            return []
        size = chunk_size(len(items), self.jobs)
        with self._lock:
            self.batches += 1
        futures = [
            self.submit(run_chunk, worker, items[i: i + size])
            for i in range(0, len(items), size)
        ]
        results: list[Any] = []
        for future in futures:
            results.extend(future.result())
        return results

    # -- accounting ----------------------------------------------------------

    @property
    def active(self) -> int:
        """Tasks submitted but not yet completed (the queue depth, counting
        both queued and currently-running tasks)."""
        with self._lock:
            return self.submitted - self.completed

    @property
    def utilization(self) -> float:
        """Fraction of workers that in-flight tasks could occupy (1.0 when
        the queue is at least as deep as the pool)."""
        return min(1.0, self.active / self.jobs) if self.jobs else 0.0

    def stats(self) -> dict[str, Any]:
        with self._lock:
            submitted, completed = self.submitted, self.completed
        return {
            "backend": self.backend,
            "jobs": self.jobs,
            "started": self.started,
            "closed": self._closed,
            "submitted": submitted,
            "completed": completed,
            "active": submitted - completed,
            "utilization": round(
                min(1.0, (submitted - completed) / self.jobs), 4
            ),
            "batches": self.batches,
        }

