"""The synchronous compile-service client.

A deliberately tiny stdlib-socket client for the JSON-lines protocol:
``python -m repro submit`` and the load-generator benchmark are both
built on it, and it doubles as executable documentation of the wire
format.  One request is in flight per connection at a time; replies for
a request are consumed until its terminal ``done``/``status``/
``shutdown``/``error`` line arrives.
"""

from __future__ import annotations

import socket
from typing import Any, Iterator, Optional

from repro.serve.protocol import (
    DEFAULT_SOCKET,
    decode_line,
    encode_line,
)


class ServeClientError(RuntimeError):
    """The server reported an ``error`` reply, or the stream broke."""


class ServeClient:
    """A blocking client for one server connection.

    ``ServeClient(socket_path=...)`` connects over a unix socket,
    ``ServeClient(host=..., port=...)`` over TCP.  Use as a context
    manager, or call :meth:`close`.
    """

    def __init__(
        self,
        socket_path: Optional[str] = None,
        host: Optional[str] = None,
        port: Optional[int] = None,
        timeout: Optional[float] = 300.0,
    ):
        if host is not None:
            self._sock = socket.create_connection((host, port), timeout)
        else:
            path = socket_path or DEFAULT_SOCKET
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                self._sock.settimeout(timeout)
                self._sock.connect(path)
            except BaseException:
                # No client object comes back to close it, so close it here.
                self._sock.close()
                raise
        self._reader = self._sock.makefile("rb")
        self._writer = self._sock.makefile("wb")
        self._request_id = 0

    # -- plumbing ------------------------------------------------------------

    def close(self) -> None:
        for stream in (self._reader, self._writer):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _next_id(self) -> int:
        self._request_id += 1
        return self._request_id

    def request(self, payload: dict[str, Any]) -> Iterator[dict[str, Any]]:
        """Send one request and yield its replies, ending after the
        terminal reply (``done``, ``status``, ``shutdown``, or ``error``).
        """
        payload = dict(payload)
        payload.setdefault("id", self._next_id())
        self._writer.write(encode_line(payload))
        self._writer.flush()
        while True:
            line = self._reader.readline()
            if not line:
                raise ServeClientError(
                    "connection closed before the request completed"
                )
            reply = decode_line(line)
            yield reply
            if reply.get("type") in ("done", "status", "shutdown", "error"):
                return

    # -- the protocol ops ----------------------------------------------------

    def compile(
        self,
        source: str,
        *,
        name: str = "request",
        machine: Optional[str] = None,
        policy: Optional[dict[str, Any]] = None,
        disasm: bool = False,
    ) -> dict[str, Any]:
        """Compile one program; returns its ``result`` reply (raising
        :class:`ServeClientError` on a protocol-level ``error``)."""
        results, done = self._collect(
            self._compile_payload(
                source, name=name, machine=machine,
                policy=policy, disasm=disasm,
            )
        )
        return results[0]

    def _compile_payload(
        self,
        source: str,
        *,
        name: str,
        machine: Optional[str],
        policy: Optional[dict[str, Any]],
        disasm: bool,
    ) -> dict[str, Any]:
        payload: dict[str, Any] = {
            "op": "compile", "name": name, "source": source,
        }
        if machine is not None:
            payload["machine"] = machine
        if policy:
            payload["policy"] = policy
        if disasm:
            payload["disasm"] = True
        return payload

    def suite(
        self,
        count: int = 72,
        *,
        machine: Optional[str] = None,
        policy: Optional[dict[str, Any]] = None,
        disasm: bool = False,
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        """Compile the synthetic suite's first ``count`` programs; returns
        (streamed ``result`` replies in arrival order, ``done`` summary).
        """
        payload: dict[str, Any] = {"op": "suite", "count": count}
        if machine is not None:
            payload["machine"] = machine
        if policy:
            payload["policy"] = policy
        if disasm:
            payload["disasm"] = True
        return self._collect(payload)

    def status(self) -> dict[str, Any]:
        """The server's stats block (queue depth, pool, cache, counters)."""
        for reply in self.request({"op": "status"}):
            if reply.get("type") == "error":
                raise ServeClientError(reply.get("message", "status failed"))
            return reply
        raise ServeClientError("no status reply")

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to drain and exit; returns the acknowledgement."""
        for reply in self.request({"op": "shutdown"}):
            if reply.get("type") == "error":
                raise ServeClientError(reply.get("message", "shutdown failed"))
            return reply
        raise ServeClientError("no shutdown reply")

    def _collect(
        self, payload: dict[str, Any]
    ) -> tuple[list[dict[str, Any]], dict[str, Any]]:
        results: list[dict[str, Any]] = []
        done: dict[str, Any] = {}
        for reply in self.request(payload):
            kind = reply.get("type")
            if kind == "result":
                results.append(reply)
            elif kind == "done":
                done = reply
            elif kind == "error":
                raise ServeClientError(reply.get("message", "request failed"))
        return results, done
