"""The open-loop serve half: the server subprocess and the load generator.

The generator is one process with two threads (the sender, on the calling
thread, and one receiver) and ``CONNECTIONS`` connections.  Requests are
sent on a fixed schedule whatever the replies do, and each is timed from
the moment it was due, so a stall charges every request queued behind it.
"""

from __future__ import annotations

import math
import os
import selectors
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

from perfbench.measure import lower_quartile, median, tail
from perfbench.workloads import CONNECTIONS, SERVER_FLAGS, Source

#: Latency charged to a request that failed, was refused or timed out; it
#: is past every latency limit.
FAILED_LATENCY_S = 60.0


class ServerProcess:
    """``python -m repro serve`` on a unix socket, as a child process."""

    def __init__(self, root: str, socket_path: str) -> None:
        self.socket_path = socket_path
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.argv = [
            sys.executable, "-m", "repro", "serve",
            "--socket", socket_path, *SERVER_FLAGS,
        ]
        self.proc = subprocess.Popen(
            self.argv, cwd=root, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    "compile server exited: "
                    + self.proc.stderr.read().decode(errors="replace")
                )
            probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                probe.connect(self.socket_path)
                return
            except OSError:
                time.sleep(0.01)
            finally:
                probe.close()
        raise RuntimeError("compile server did not start listening")

    def stop(self, timeout: float = 30.0) -> None:
        """Terminate (the server drains on SIGTERM) and wait for exit."""
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()


class Sample(NamedTuple):
    """What a run keeps of a request once its reply has been checked."""

    due: float
    sent: float
    done: float
    ok: bool
    latency: float
    #: The reply's ``seconds`` and ``from_cache``.
    service_s: float
    from_cache: bool
    error: str


@dataclass
class Outcome:
    """One request: its schedule, its reply and when things happened."""

    name: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    reply: Optional[dict[str, Any]] = None
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.done > 0 and not self.error and bool(
            self.reply and self.reply.get("ok")
        )

    @property
    def latency(self) -> float:
        return self.done - self.due if self.ok else FAILED_LATENCY_S

    def sample(self) -> Sample:
        reply = self.reply or {}
        return Sample(self.due, self.sent, self.done, self.ok, self.latency,
                      reply.get("seconds", 0.0),
                      bool(reply.get("from_cache")), self.error)


class OpenLoop:
    """The load generator's connections and its receiver thread."""

    def __init__(self, socket_path: str, connections: int = CONNECTIONS):
        from repro.serve.protocol import decode_line, encode_line

        self._encode, self._decode = encode_line, decode_line
        self._socks = []
        for _ in range(connections):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.connect(socket_path)
            self._socks.append(sock)
        self._lock = threading.Condition()
        self._pending: dict[int, Outcome] = {}
        self._control: dict[int, dict[str, Any]] = {}
        self._next_id = 0
        self._closing = False
        self._receiver = threading.Thread(target=self._receive, daemon=True)
        self._receiver.start()

    # -- receiving -----------------------------------------------------------

    def _receive(self) -> None:
        selector = selectors.DefaultSelector()
        buffers = {}
        for sock in self._socks:
            selector.register(sock, selectors.EVENT_READ)
            buffers[sock] = b""
        open_socks = len(self._socks)
        while open_socks:
            for key, _ in selector.select(timeout=0.1):
                chunk = key.fileobj.recv(1 << 16)
                if not chunk:
                    selector.unregister(key.fileobj)
                    open_socks -= 1
                    continue
                data = buffers[key.fileobj] + chunk
                *lines, buffers[key.fileobj] = data.split(b"\n")
                now = time.perf_counter()
                for line in lines:
                    self._on_reply(self._decode(line), now)
            with self._lock:
                if self._closing and not self._pending:
                    break
        selector.close()

    def _on_reply(self, reply: dict[str, Any], now: float) -> None:
        rid = reply.get("id")
        kind = reply.get("type")
        with self._lock:
            if rid in self._control and kind != "result":
                self._control[rid] = reply
                self._lock.notify_all()
                return
            outcome = self._pending.get(rid)
            if outcome is None:
                return
            if kind == "result":
                outcome.reply = reply
                return
            if kind == "error":
                outcome.error = reply.get("message", "error reply")
            outcome.done = now
            del self._pending[rid]
            self._lock.notify_all()

    # -- sending -------------------------------------------------------------

    def _send(self, index: int, payload: dict[str, Any]) -> None:
        self._socks[index % len(self._socks)].sendall(self._encode(payload))

    def run(
        self,
        requests: list[Source],
        rate: float,
        drain_s: float,
    ) -> list[Outcome]:
        """Send ``requests`` at ``rate`` per second, then wait up to
        ``drain_s`` past the last due time for the replies."""
        start = time.perf_counter() + 0.005
        outcomes = []
        for i, (name, source) in enumerate(requests):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            outcome = Outcome(name, due)
            with self._lock:
                self._next_id += 1
                rid = self._next_id
                self._pending[rid] = outcome
            outcome.sent = time.perf_counter()
            self._send(i, {"op": "compile", "id": rid, "name": name,
                           "source": source})
            outcomes.append(outcome)
        deadline = time.perf_counter() + drain_s
        with self._lock:
            while self._pending:
                left = deadline - time.perf_counter()
                if left <= 0:
                    break
                self._lock.wait(left)
            for rid, outcome in list(self._pending.items()):
                outcome.error = "timed out"
                del self._pending[rid]
        return outcomes

    def control(self, op: str, timeout: float = 30.0) -> dict[str, Any]:
        """A ``status``/``shutdown`` request on the first connection."""
        with self._lock:
            self._next_id += 1
            rid = self._next_id
            self._control[rid] = {}
        self._send(0, {"op": op, "id": rid})
        deadline = time.perf_counter() + timeout
        with self._lock:
            while not self._control[rid]:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise RuntimeError(f"no reply to {op!r}")
                self._lock.wait(left)
            return self._control.pop(rid)

    def close(self) -> None:
        with self._lock:
            self._closing = True
            self._pending.clear()
        for sock in self._socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        self._receiver.join(10.0)
        for sock in self._socks:
            sock.close()


def slices(windows: list[list[Any]], slice_s: float) -> list[list[float]]:
    """Latencies grouped into ``slice_s`` slices of each window by due
    time; slices of ten samples or fewer are dropped unless none is
    larger.  The windows hold ``Outcome`` or ``Sample`` records; a failed
    request counts as ``FAILED_LATENCY_S``."""
    groups: list[list[float]] = []
    for window in windows:
        start = window[0].due
        by_slice: dict[int, list[float]] = {}
        for o in window:
            by_slice.setdefault(int((o.due - start) // slice_s), []).append(
                o.latency
            )
        groups.extend(by_slice.values())
    full = [g for g in groups if len(g) > 10]
    return full or [[x for g in groups for x in g]]


def latency_summary(
    windows: list[list[Sample]], slice_s: float = 0.5
) -> dict[str, Any]:
    """The p50 and the tail of the serve windows' latencies, each as the
    lower quartile over ``slice_s`` slices of the slice's own figure, and
    the tail of how late the sender ran.

    Contention from other tenants of the machine slows whole seconds of
    a run; the quietest quarter of the slices shows what the service
    itself costs, and a change that slows every request moves it all the
    same."""
    groups = slices(windows, slice_s)
    tails = [tail(g) for g in groups]
    samples = [s for window in windows for s in window]
    late_value, _, _ = tail([s.sent - s.due for s in samples])
    return {
        "p50_s": lower_quartile(median(g) for g in groups),
        "tail_s": lower_quartile(t[0] for t in tails),
        "tail_percentile": tails[0][1],
        "samples": tails[0][2],
        "slices": len(tails),
        "late_s": late_value,
    }


def sweep(
    loop: OpenLoop,
    next_requests: Callable[[int], list[Source]],
    start_rate: float,
    limit_s: float,
    step_s: float,
    factor: float = 1.15,
    max_steps: int = 16,
    slice_s: float = 0.25,
) -> tuple[float, list[dict[str, Any]], list[Outcome]]:
    """Step the offered rate by ``factor`` from ``start_rate`` until a step
    misses the limit (walking down instead if the first step misses).

    A step meets the limit when its tail (the median over ``slice_s``
    slices of each slice's tail) is within ``limit_s``, no request failed,
    and no backlog built up: the median latency of the step's last slice
    is within ``limit_s`` too.  A step that misses is run once more at the
    same rate, so one transient stall does not end the sweep.  Returns the
    highest rate meeting the limit, interpolated in log-rate between the
    last step that met it and the first that missed; the steps; and every
    outcome (for the checks).
    """
    steps: list[dict[str, Any]] = []
    outcomes: list[Outcome] = []

    def step(rate: float) -> bool:
        met = False
        for _ in range(2):
            batch = loop.run(
                next_requests(max(20, round(rate * step_s))), rate,
                drain_s=max(1.0, 50 * limit_s),
            )
            outcomes.extend(batch)
            value = median(tail(g)[0] for g in slices([batch], slice_s))
            last = batch[-max(1, round(rate * slice_s)):]
            met = (
                value <= limit_s
                and all(o.ok for o in batch)
                and median(o.latency for o in last) <= limit_s
            )
            steps.append({"rate": rate, "tail_s": value, "met": met})
            if met:
                break
        return met

    rate = start_rate
    direction = 1 if step(rate) else -1
    for _ in range(max_steps - 1):
        rate = rate * factor if direction == 1 else rate / factor
        if step(rate) != (direction == 1):
            break
    met = [s for s in steps if s["met"]]
    if not met:
        return 0.0, steps, outcomes
    best = max(met, key=lambda s: s["rate"])
    above = [s for s in steps if not s["met"] and s["rate"] > best["rate"]]
    if not above:
        return best["rate"], steps, outcomes
    lowest = min(s["rate"] for s in above)
    # The confirming re-run of the lowest rate that missed.
    worst = [s for s in above if s["rate"] == lowest][-1]
    t_met, t_miss = best["tail_s"], min(worst["tail_s"], 10 * limit_s)
    share = (limit_s - t_met) / (t_miss - t_met) if t_miss > t_met else 0.0
    share = min(1.0, max(0.0, share))
    rate = best["rate"] * math.exp(
        share * math.log(worst["rate"] / best["rate"])
    )
    return rate, steps, outcomes
