"""Content-addressed schedule cache.

A compilation is a pure function of three inputs: the IR program, the
machine description, and the compiler policy.  Each input is reduced to a
stable fingerprint (the IR via the canonical printer, the machine via its
latency/reservation tables, the policy via its field values), and the
SHA-256 of the three together with the cache format and a hash of the
compiler's own sources keys the cached :class:`CompiledProgram`.  Folding
in the compiler fingerprint means a persisted cache can never serve
output from a different compiler.

Keys are two-level.  The IR key above is the source of truth: two
sources that lower to the same IR share one entry.  In front of it sits
an in-memory alias map from :func:`source_key` (SHA-256 of the format,
compiler, machine and policy fingerprints and the raw source text) to
the IR key, so a repeated request resolves with one hash and a dictionary
probe instead of re-running the frontend.  The alias hashes the request
policy, not the effective one: ``{$independent}`` directives in the
source widen it, and the request policy plus the source text determine
the result.  Aliases are never persisted.

The cache has two layers: an in-process dictionary (always on) and an
optional on-disk backend under ``.repro_cache/`` holding one pickle per
key, sharded by the first two hex digits.  A disk lookup is one ``open``
of the entry's path: a missing, truncated or corrupt file is a miss, and
an entry another process wrote is visible at once.  Writes are atomic
(temp-file + rename), so separate processes may share a directory.
Hit/miss counters feed the batch driver's ``--stats`` output.  The
in-memory entries and the aliases are each LRU-bounded by
:data:`MEMORY_ENTRIES`, so a long-lived server does not grow without
bound however large the disk layer gets; an evicted entry still on disk
is re-read on its next hit.  The alias probe reads the memory layer only,
so it never blocks on a file: an alias whose entry has left memory falls
back to parsing and the IR key, whose lookup reads the disk.

A cache lives in one process and does not pickle; separate processes
share entries only through a common cache directory.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import TYPE_CHECKING, Any, Optional

from repro.ir.printer import format_program
from repro.machine.description import MachineDescription

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.compile import CompiledProgram, CompilerPolicy
    from repro.ir.stmts import Program

#: Bumping it invalidates every existing cache entry.  A change to the
#: ``repro`` sources already does (see :func:`compiler_fingerprint`), so
#: a bump is only needed when something outside them changes the output.
CACHE_FORMAT = 1

DEFAULT_CACHE_DIR = ".repro_cache"

#: LRU bound, in entries, on the in-memory compiled programs and,
#: separately, on the source aliases of one :class:`ScheduleCache`.
MEMORY_ENTRIES = 4096


@functools.cache
def compiler_fingerprint() -> str:
    """SHA-256 over the ``repro`` package's Python sources (relative path
    and bytes, in path order), computed once per process on first use."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint_program(program: "Program") -> str:
    """Stable fingerprint of an IR program: the canonical printer output
    (which covers every operation, bound, and declaration)."""
    text = f"{program.name}\n{format_program(program)}"
    return hashlib.sha256(text.encode()).hexdigest()


def fingerprint_machine(machine: MachineDescription) -> str:
    """Stable fingerprint of everything scheduling-relevant in a machine
    description, computed once when the description is built."""
    return machine.fingerprint


@functools.lru_cache(maxsize=256)
def fingerprint_policy(policy: "CompilerPolicy") -> str:
    """Stable fingerprint of a :class:`CompilerPolicy`.

    ``dataclasses.asdict`` is not used directly because frozenset fields
    iterate in hash order; collections are sorted first.  Memoised by
    value: the server keys every unit it is sent.
    """
    fields: dict[str, Any] = {}
    for f in dataclasses.fields(policy):
        value = getattr(policy, f.name)
        if isinstance(value, (frozenset, set)):
            value = sorted(value)
        fields[f.name] = value
    return hashlib.sha256(
        json.dumps(fields, sort_keys=True, default=repr).encode()
    ).hexdigest()


def cache_key(
    program: "Program",
    machine: MachineDescription,
    policy: "CompilerPolicy",
) -> str:
    """The content address of one compilation."""
    combined = "\n".join(
        (
            f"format={CACHE_FORMAT}",
            compiler_fingerprint(),
            fingerprint_program(program),
            fingerprint_machine(machine),
            fingerprint_policy(policy),
        )
    )
    return hashlib.sha256(combined.encode()).hexdigest()


def source_key(
    source: str,
    machine: MachineDescription,
    policy: "CompilerPolicy",
) -> str:
    """The alias of one request: the source text under the request's
    machine and policy, before any pragma is applied."""
    combined = "\n".join(
        (
            f"format={CACHE_FORMAT}",
            compiler_fingerprint(),
            fingerprint_machine(machine),
            fingerprint_policy(policy),
            source,
        )
    )
    return hashlib.sha256(combined.encode()).hexdigest()


class ScheduleCache:
    """Two-layer (memory + optional disk) cache of compiled programs, with
    an in-memory source alias map in front of the IR key.

    ``path=None`` keeps the cache purely in-memory; otherwise entries are
    persisted under ``path`` and survive across processes, so re-running a
    benchmark suite is a hash lookup per program.
    """

    def __init__(self, path: str | os.PathLike | None = DEFAULT_CACHE_DIR):
        self.path: Optional[Path] = Path(path) if path is not None else None
        self._memory: OrderedDict[str, "CompiledProgram"] = OrderedDict()
        self._aliases: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.source_hits = 0
        self.evictions = 0
        self.alias_evictions = 0

    # -- internals -----------------------------------------------------------

    def _entry_path(self, key: str) -> Path:
        assert self.path is not None
        return self.path / key[:2] / f"{key}.pkl"

    def _remember(self, key: str, compiled: "CompiledProgram") -> None:
        """Insert into the memory layer, evicting least recently used
        entries past :data:`MEMORY_ENTRIES`.  Caller holds the lock."""
        self._memory[key] = compiled
        self._memory.move_to_end(key)
        while len(self._memory) > MEMORY_ENTRIES:
            self._memory.popitem(last=False)
            self.evictions += 1

    # -- the cache protocol --------------------------------------------------

    def get(self, key: str) -> Optional["CompiledProgram"]:
        """The cached compilation for ``key``, from memory, else from disk
        (a disk hit re-enters the memory layer), or ``None``, counted as
        a miss."""
        with self._lock:
            compiled = self._memory.get(key)
            if compiled is not None:
                self._memory.move_to_end(key)
                self.hits += 1
                return compiled
        if self.path is not None:
            try:
                with open(self._entry_path(key), "rb") as handle:
                    compiled = pickle.load(handle)
            except Exception:
                # Unpickling a truncated/corrupt/vanished entry can raise
                # nearly anything; treat it as a miss (the recompile's put
                # replaces it).
                compiled = None
        with self._lock:
            if compiled is None:
                self.misses += 1
            else:
                self._remember(key, compiled)
                self.hits += 1
        return compiled

    def resolve(self, alias: str) -> Optional["CompiledProgram"]:
        """The compilation behind a :func:`source_key` alias, from the
        memory layer only.

        It never opens a disk entry, so an event loop may call it (the
        compile server answers repeats this way).  A resolved alias counts
        one hit and one source hit.  An unknown alias, or one whose entry
        has left memory, counts nothing: the caller falls back to parsing
        and :meth:`get` on the IR key, which reads disk and counts the hit
        or the miss.
        """
        with self._lock:
            key = self._aliases.get(alias)
            if key is None:
                return None
            self._aliases.move_to_end(alias)
            compiled = self._memory.get(key)
            if compiled is None:
                return None
            self._memory.move_to_end(key)
            self.hits += 1
            self.source_hits += 1
            return compiled

    def add_alias(self, alias: str, key: str) -> None:
        """Point the source alias ``alias`` at the IR key ``key``, evicting
        least recently used aliases past :data:`MEMORY_ENTRIES`."""
        with self._lock:
            self._aliases[alias] = key
            self._aliases.move_to_end(alias)
            while len(self._aliases) > MEMORY_ENTRIES:
                self._aliases.popitem(last=False)
                self.alias_evictions += 1

    def put(self, key: str, compiled: "CompiledProgram") -> None:
        with self._lock:
            self._remember(key, compiled)
        if self.path is None:
            return
        entry = self._entry_path(key)
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=entry.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(compiled, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, entry)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- reporting -----------------------------------------------------------

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "source_hits": self.source_hits,
            "memory_entries": len(self._memory),
            "aliases": len(self._aliases),
            "evictions": self.evictions,
            "alias_evictions": self.alias_evictions,
            "path": str(self.path) if self.path is not None else None,
        }

    def clear(self) -> None:
        """Drop the in-memory layer and the aliases, reset the counters,
        and delete every on-disk entry."""
        with self._lock:
            self._memory.clear()
            self._aliases.clear()
            self.hits = self.misses = self.source_hits = 0
            self.evictions = self.alias_evictions = 0
        if self.path is not None and self.path.is_dir():
            for shard in self.path.iterdir():
                if shard.is_dir():
                    for entry in shard.glob("*.pkl"):
                        entry.unlink(missing_ok=True)
