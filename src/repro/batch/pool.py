"""The compile server's persistent worker pool.

A stream of small requests — the compile-service pattern, where every
client request is a handful of programs — would pay an executor's
start-up and teardown on every request.  :class:`WorkerPool` keeps one
thread pool alive for the server's lifetime and carries the bookkeeping
a long-lived service needs: submitted/completed task counts, the number
of in-flight tasks (the queue depth), and a utilization figure, all
exposed through :meth:`stats` and served by ``repro.serve``'s ``status``
reply.  Its owner closes it.

The workers are threads: a compiled program is large to pickle (about
13.5 KB) next to the work of compiling it, so a process pool measured
slower than threads, and threads share the server's cache directly.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional


class WorkerPool:
    """A persistent thread pool with service-grade accounting.

    The executor is created lazily on first submission and survives until
    :meth:`close` (or context-manager exit).
    """

    def __init__(self, jobs: int = 4):
        if jobs < 1:
            raise ValueError(f"WorkerPool needs jobs >= 1, got {jobs}")
        self.jobs = jobs
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._closed = False
        self.submitted = 0
        self.completed = 0

    # -- executor lifecycle --------------------------------------------------

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._closed:
                raise RuntimeError("WorkerPool is closed")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(max_workers=self.jobs)
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
        return min(1.0, self.active / self.jobs)

    def stats(self) -> dict[str, Any]:
        with self._lock:
            submitted, completed = self.submitted, self.completed
        return {
            "jobs": self.jobs,
            "started": self.started,
            "closed": self._closed,
            "submitted": submitted,
            "completed": completed,
            "active": submitted - completed,
            "utilization": round(
                min(1.0, (submitted - completed) / self.jobs), 4
            ),
        }
