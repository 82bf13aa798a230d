"""The persistent asyncio compile server.

``python -m repro serve`` runs one long-lived :class:`CompileServer`:
an asyncio event loop accepting JSON-lines requests over a unix socket
(default) or TCP, multiplexing every compile unit onto one persistent
thread pool (:class:`~repro.batch.pool.WorkerPool`), and sharing one
:class:`~repro.batch.ScheduleCache` across every client — the
"compilation as a service" arrangement where the pipeliner, a pure
function of (IR, machine, policy), is computed once per distinct input
no matter how many clients ask.

Concurrency model:

* Each client connection gets one handler task; requests on a connection
  are processed in order (replies to one request never interleave with
  another's on the same connection), while separate connections proceed
  concurrently.
* A unit whose source this server has already compiled under the same
  machine and policy is answered on the event loop: :func:`~repro.batch.
  driver.alias_hit` probes the cache's source alias, which reads only the
  memory layer, so a repeat costs a hash and a dictionary probe and never
  waits in the pool's queue.  Every other unit (a miss) becomes one pool
  task, so a ``suite`` request's 72 programs load-balance across warm
  workers and ``result`` replies stream back in completion order, hits
  first.
* Reply lines that are ready together go out in one write: the hits'
  lines before the first miss is awaited, and the last ``result`` line
  with the ``done`` line, so an all-hit request is one write.
* Backpressure: a request whose units would push the pool's queue depth
  past ``max_pending`` is rejected with an ``error`` reply instead of
  being absorbed into an unbounded backlog.  The bound counts every unit
  of the request, hits included.  The check, the probes and the misses'
  submissions run with no await between them, so no other request is
  admitted halfway; the handler yields only later, between the hits'
  encodes, to let other connections in during a long all-hit request.
* Graceful shutdown (a ``shutdown`` request or SIGINT/SIGTERM): the
  listener closes, new requests are refused with ``"draining"``, in-flight
  requests keep streaming until done, then the pool is torn down.
* A client that disconnects mid-stream costs nothing but its own pending
  units (unstarted pool tasks are cancelled); other connections are
  unaffected.

Server-level counters live on a :class:`repro.obs.CompileObserver`
(``serve_requests``, ``serve_results``, ``serve_cache_hits``, ...) and are
served, together with pool utilization, queue depth, and cache stats, in
the ``status`` reply.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Optional

from repro.batch.cache import ScheduleCache, source_key
from repro.batch.driver import (
    CompileResult,
    _coerce_sources,
    alias_hit,
    compile_one,
)
from repro.batch.pool import WorkerPool
from repro.core.compile import CompilerPolicy
from repro.machine import MACHINES, MachineDescription
from repro.obs import CompileObserver
from repro.serve.protocol import (
    DEFAULT_SOCKET,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_line,
    encode_line,
    error_reply,
    policy_from_wire,
    result_to_wire,
    validate_request,
)
from repro.workloads import generate_suite

#: Refuse request lines longer than this (a malformed client should not
#: buffer the server into the ground).
MAX_LINE_BYTES = 8 * 1024 * 1024


@dataclass
class ServeConfig:
    """Everything ``python -m repro serve`` can set."""

    socket_path: Optional[str] = DEFAULT_SOCKET
    host: Optional[str] = None
    port: Optional[int] = None
    jobs: int = 4
    cache_dir: Optional[str] = None
    machine: str = "warp"
    policy: CompilerPolicy = field(default_factory=CompilerPolicy)
    max_pending: int = 1024

    @property
    def endpoint(self) -> str:
        if self.host is not None:
            return f"tcp://{self.host}:{self.port}"
        return f"unix://{self.socket_path}"


class _ClientGone(Exception):
    """The peer vanished mid-reply; abort its request, keep serving."""


class CompileServer:
    """One long-lived compile service instance (see module docstring)."""

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.config.machine!r};"
                f" expected one of {sorted(MACHINES)}"
            )
        self.pool = WorkerPool(jobs=self.config.jobs)
        # One cache shared by every request: disk-backed when configured,
        # otherwise a process-lifetime in-memory layer.
        self.cache = ScheduleCache(self.config.cache_dir)
        self.observer = CompileObserver()
        self.started_at = time.monotonic()
        #: Set once the listener is accepting (thread harnesses wait on it).
        self.ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._drained: Optional[asyncio.Event] = None
        self._draining = False
        self._inflight = 0
        self._conn_tasks: set[asyncio.Task] = set()
        self._bound_port: Optional[int] = None

    @property
    def port(self) -> Optional[int]:
        """The bound TCP port once listening (useful with ``port=0``)."""
        return self._bound_port

    # -- stats ---------------------------------------------------------------

    def status_payload(self) -> dict[str, Any]:
        return {
            "protocol": PROTOCOL_VERSION,
            "endpoint": self.config.endpoint,
            "machine": self.config.machine,
            "uptime_seconds": round(time.monotonic() - self.started_at, 3),
            "draining": self._draining,
            "inflight_requests": self._inflight,
            "queue_depth": self.pool.active,
            "requests": dict(sorted(self.observer.counters.items())),
            "pool": self.pool.stats(),
            "cache": self.cache.stats(),
        }

    # -- lifecycle -----------------------------------------------------------

    async def run(self) -> None:
        """Listen, serve until shutdown, drain, and tear down."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._drained = asyncio.Event()
        if self.config.host is not None:
            server = await asyncio.start_server(
                self._on_client, self.config.host, self.config.port,
                limit=MAX_LINE_BYTES,
            )
            if server.sockets:
                self._bound_port = server.sockets[0].getsockname()[1]
        else:
            path = self.config.socket_path or DEFAULT_SOCKET
            try:
                os.unlink(path)
            except OSError:
                pass
            server = await asyncio.start_unix_server(
                self._on_client, path=path, limit=MAX_LINE_BYTES
            )
        self.ready.set()
        try:
            async with server:
                await self._stop.wait()
                server.close()
                await server.wait_closed()
                # Drain: every request already being processed finishes
                # and streams its replies before anything is torn down.
                if self._inflight == 0:
                    self._drained.set()
                await self._drained.wait()
        finally:
            for task in list(self._conn_tasks):
                task.cancel()
            if self._conn_tasks:
                await asyncio.gather(
                    *self._conn_tasks, return_exceptions=True
                )
            self.pool.close()
            if self.config.host is None and self.config.socket_path:
                try:
                    os.unlink(self.config.socket_path)
                except OSError:
                    pass
            self.ready.clear()

    def request_shutdown(self) -> None:
        """Begin a graceful drain; safe to call from any thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_drain)

    def _begin_drain(self) -> None:
        self._draining = True
        if self._stop is not None:
            self._stop.set()

    # -- connection handling -------------------------------------------------

    async def _on_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._conn_tasks.add(task)
        self.observer.count("serve_connections")
        write_lock = asyncio.Lock()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    asyncio.LimitOverrunError,
                    ValueError,  # StreamReader.readline past the limit
                ):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                await self._handle_line(line, writer, write_lock)
        except _ClientGone:
            self.observer.count("serve_disconnects")
        except asyncio.CancelledError:
            pass
        finally:
            self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        payload: dict[str, Any],
    ) -> None:
        await self._write(writer, lock, encode_line(payload))

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        data: bytes,
    ) -> None:
        """Send encoded reply lines in one write."""
        async with lock:
            try:
                writer.write(data)
                await writer.drain()
            except (ConnectionResetError, BrokenPipeError, OSError) as exc:
                raise _ClientGone() from exc

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        try:
            payload = decode_line(line)
            op = validate_request(payload)
        except ProtocolError as exc:
            self.observer.count("serve_malformed")
            await self._send(writer, lock, error_reply(str(exc)))
            return
        request_id = payload.get("id")
        self.observer.count("serve_requests")
        self.observer.count(f"serve_requests_{op}")

        if op == "status":
            await self._send(
                writer, lock,
                {"type": "status", "id": request_id,
                 "stats": self.status_payload()},
            )
            return
        if op == "shutdown":
            await self._send(
                writer, lock,
                {"type": "shutdown", "id": request_id,
                 "draining": self._inflight},
            )
            self._begin_drain()
            return

        # compile / suite: reject instead of queueing when draining or full.
        if self._draining:
            self.observer.count("serve_rejected")
            await self._send(
                writer, lock,
                error_reply("server is draining", request_id),
            )
            return
        try:
            units = self._request_units(op, payload)
            machine, policy = self._request_machine_policy(payload)
        except ProtocolError as exc:
            self.observer.count("serve_malformed")
            await self._send(writer, lock, error_reply(str(exc), request_id))
            return
        if self.pool.active + len(units) > self.config.max_pending:
            self.observer.count("serve_rejected")
            await self._send(
                writer, lock,
                error_reply(
                    f"queue full ({self.pool.active} pending,"
                    f" max {self.config.max_pending})",
                    request_id,
                ),
            )
            return

        self._inflight += 1
        try:
            await self._run_compile_request(
                units, machine, policy,
                disasm=bool(payload.get("disasm")),
                request_id=request_id,
                writer=writer, lock=lock,
            )
        finally:
            self._inflight -= 1
            if self._draining and self._inflight == 0:
                self._drained.set()

    # -- request execution ---------------------------------------------------

    def _request_units(
        self, op: str, payload: dict[str, Any]
    ) -> list[tuple[str, str]]:
        if op == "suite":
            count = payload.get("count", 72)
            return _coerce_sources(generate_suite()[:count])
        name = payload.get("name") or "request"
        return [(name, payload["source"])]

    def _request_machine_policy(
        self, payload: dict[str, Any]
    ) -> tuple[MachineDescription, CompilerPolicy]:
        machine_name = payload.get("machine", self.config.machine)
        machine = MACHINES.get(machine_name)
        if machine is None:
            raise ProtocolError(
                f"unknown machine {machine_name!r};"
                f" expected one of {sorted(MACHINES)}"
            )
        policy = policy_from_wire(payload.get("policy"), self.config.policy)
        return machine, policy

    async def _run_compile_request(
        self,
        units: list[tuple[str, str]],
        machine: MachineDescription,
        policy: CompilerPolicy,
        *,
        disasm: bool,
        request_id: Any,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
    ) -> None:
        t0 = time.perf_counter()
        # Probe and submit every unit in one pass with no await, so no
        # other request is admitted between ``_handle_line``'s
        # ``max_pending`` check and these submissions.
        hits: list[CompileResult] = []
        futures = []
        for name, source in units:
            try:
                hit = alias_hit(
                    name, source_key(source, machine, policy), self.cache,
                    time.perf_counter(),
                )
            except Exception:
                # A source the probe cannot key (a lone surrogate, say)
                # is a miss: ``compile_one`` turns it into ``result.error``.
                hit = None
            if hit is not None:
                hits.append(hit)
            else:
                futures.append(self.pool.submit(
                    compile_one, name, source, machine, policy,
                    cache=self.cache,
                ))
        ok = errors = 0
        ready: list[bytes] = []

        def reply(result: CompileResult) -> None:
            nonlocal ok, errors
            self.observer.count("serve_results")
            if result.from_cache:
                self.observer.count("serve_cache_hits")
            if result.ok:
                ok += 1
            else:
                errors += 1
            ready.append(encode_line(result_to_wire(
                result, request_id=request_id, disasm=disasm
            )))

        wrapped = [asyncio.wrap_future(future) for future in futures]
        try:
            for index, hit in enumerate(hits):
                if index:
                    # Let other connections in between encodes: a
                    # 72-program suite of hits with disassembly encodes
                    # for tens of milliseconds.
                    await asyncio.sleep(0)
                reply(hit)
            completed = asyncio.as_completed(wrapped)
            for _ in wrapped:
                # Flush what is ready before waiting: the last line stays
                # back to share the ``done`` line's write.
                if ready:
                    await self._write(writer, lock, b"".join(ready))
                    ready.clear()
                reply(await next(completed))
        except _ClientGone:
            # The client hung up mid-stream: give back what the pool has
            # not started yet and swallow the rest of this request.
            for future in futures:
                future.cancel()
            for aw in wrapped:
                aw.cancel()
            raise
        ready.append(encode_line({
            "type": "done",
            "id": request_id,
            "programs": len(units),
            "ok": ok,
            "errors": errors,
            "seconds": round(time.perf_counter() - t0, 6),
        }))
        await self._write(writer, lock, b"".join(ready))


class ServerThread:
    """Run a :class:`CompileServer` on a background thread.

    The load-generator benchmark, the test-suite, and any client wanting
    an in-process server use this: ``start()`` returns once the listener
    accepts, ``stop()`` drains and joins.
    """

    def __init__(self, server: CompileServer):
        self.server = server
        self._thread: Optional[threading.Thread] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.server.run()), daemon=True
        )
        self._thread.start()
        if not self.server.ready.wait(timeout):
            raise RuntimeError("compile server failed to start listening")
        return self

    def stop(self, timeout: float = 30.0) -> None:
        self.server.request_shutdown()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
