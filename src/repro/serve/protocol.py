"""The JSON-lines wire protocol shared by the compile server and client.

One request or reply per line, UTF-8 JSON, newline-terminated.  Requests
carry an ``op`` (see ``REQUEST_OPS``) and an optional client-chosen
``id`` that every reply to that request echoes back.  Replies carry a
``type``:

``result``
    One program's outcome, streamed as it finishes (so a slow program
    never blocks a fast one's reply): ``name``, ``ok``, ``from_cache``,
    ``seconds``, and either the loop ``report`` (plus ``disasm`` when the
    request asked for it) or a structured ``error``.
``done``
    The request's terminal summary: ``ok``/``errors`` counts and wall
    time.  After ``done``, the connection is ready for the next request.
``status``
    The server's stats block (requests served, queue depth, pool
    utilization, cache hits — see ``repro.serve.server``).
``shutdown``
    Acknowledgement that the server is draining.
``error``
    A malformed or rejected request (bad JSON, unknown op, missing
    fields, server draining, queue full).  The connection stays usable.

The protocol is deliberately line-oriented and schema-light so a client
is ten lines of stdlib code; validation lives here so the server and the
tests agree on what "malformed" means.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Optional

from repro.core.compile import CompilerPolicy

PROTOCOL_VERSION = 1

#: Default unix-socket path for ``python -m repro serve`` / ``submit``.
DEFAULT_SOCKET = ".repro_serve.sock"

REQUEST_OPS = ("compile", "suite", "status", "shutdown")

REPLY_TYPES = ("result", "done", "status", "shutdown", "error")


class ProtocolError(ValueError):
    """A request line the server cannot act on (reported, not fatal)."""


def encode_line(payload: dict[str, Any]) -> bytes:
    """One wire line: compact JSON + newline."""
    return json.dumps(payload, separators=(",", ":")).encode() + b"\n"


def decode_line(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a dict, raising :class:`ProtocolError`
    on anything that is not a JSON object."""
    if isinstance(line, bytes):
        try:
            line = line.decode()
        except UnicodeDecodeError as exc:
            raise ProtocolError(f"request is not UTF-8: {exc}") from exc
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"request is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"request must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def validate_request(payload: dict[str, Any]) -> str:
    """Check a decoded request's shape and return its ``op``."""
    op = payload.get("op")
    if op not in REQUEST_OPS:
        raise ProtocolError(
            f"unknown op {op!r}; expected one of {REQUEST_OPS}"
        )
    if op == "compile":
        source = payload.get("source")
        if not isinstance(source, str) or not source.strip():
            raise ProtocolError("compile request needs a non-empty 'source'")
        if "name" in payload and not isinstance(payload["name"], str):
            raise ProtocolError("compile 'name' must be a string")
    if op == "suite":
        count = payload.get("count", 72)
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ProtocolError("suite 'count' must be a positive integer")
    if "policy" in payload and not isinstance(payload["policy"], dict):
        raise ProtocolError("'policy' must be an object of policy fields")
    return op


#: CompilerPolicy fields a request may set, with the type each value must
#: have (its default's).  ``independent_arrays`` travels as a list and is
#: rebuilt as a frozenset.
_POLICY_TYPES = {
    f.name: type(f.default) for f in dataclasses.fields(CompilerPolicy)
}


def policy_from_wire(
    overrides: Optional[dict[str, Any]],
    base: Optional[CompilerPolicy] = None,
) -> CompilerPolicy:
    """Apply a request's policy overrides to ``base`` (default policy if
    omitted), rejecting unknown fields, mistyped values and unknown names."""
    policy = base if base is not None else CompilerPolicy()
    if not overrides:
        return policy
    unknown = sorted(set(overrides) - set(_POLICY_TYPES))
    if unknown:
        raise ProtocolError(
            f"unknown policy field(s): {', '.join(unknown)}"
        )
    fields = dict(overrides)
    if "independent_arrays" in fields:
        value = fields["independent_arrays"]
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(name, str) for name in value
        ):
            raise ProtocolError(
                "policy 'independent_arrays' must be a list of strings"
            )
        fields["independent_arrays"] = frozenset(value)
    for name, value in fields.items():
        want = _POLICY_TYPES[name]
        # bool is an int subclass: an int field must not take true/false.
        if not isinstance(value, want) or (
            want is int and isinstance(value, bool)
        ):
            raise ProtocolError(
                f"policy {name!r} must be {want.__name__},"
                f" got {type(value).__name__}"
            )
    try:
        return dataclasses.replace(policy, **fields)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"bad policy override: {exc}") from exc


def result_to_wire(
    result: Any, *, request_id: Any = None, disasm: bool = False
) -> dict[str, Any]:
    """Serialize one :class:`repro.batch.CompileResult` as a ``result``
    reply."""
    reply: dict[str, Any] = {
        "type": "result",
        "name": result.name,
        "ok": result.ok,
        "from_cache": result.from_cache,
        "seconds": round(result.seconds, 6),
    }
    if request_id is not None:
        reply["id"] = request_id
    if result.ok:
        reply["report"] = result.compiled.report()
        reply["code_size"] = result.compiled.code_size
        if disasm:
            from repro.core.display import disassemble

            reply["disasm"] = disassemble(result.compiled.code)
    else:
        reply["error"] = result.error.to_dict()
    return reply


def error_reply(message: str, request_id: Any = None) -> dict[str, Any]:
    reply: dict[str, Any] = {"type": "error", "message": message}
    if request_id is not None:
        reply["id"] = request_id
    return reply
