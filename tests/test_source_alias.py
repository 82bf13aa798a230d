"""The schedule cache's source alias, its LRU bounds and the compiler
fingerprint.

A repeated source is answered from an in-memory alias (source text under
a machine and policy -> IR key) without running the frontend.  The IR
key stays the source of truth, so the alias must never serve a program
compiled for another machine, policy or compiler, must never exist for a
source that failed, and must give exactly what an uncached compile gives.
The ``compile_one`` tests run on a one-thread :class:`WorkerPool`, as the
compile server runs them.
"""

import sys

import pytest

import repro.batch.cache as cache_mod
from repro import SIMPLE, WARP, CompilerPolicy
from repro.batch.cache import MEMORY_ENTRIES, ScheduleCache
from repro.batch.driver import compile_one
from repro.batch.pool import WorkerPool
from repro.core.display import disassemble
from repro.machine.warp import make_warp
from repro.serve import CompileServer, ServeClient, ServeConfig, ServerThread
from repro.workloads import generate_suite
from repro.workloads.user_programs import SHORTEST_PATH

SUITE = generate_suite()
SOURCE = SUITE[0].source
#: Same IR as SOURCE: only a comment and whitespace differ.
RESPACED = SOURCE.replace("begin", "begin { same IR }", 1) + "\n\n"
BAD_SOURCE = "program broken; begin x := ; end."


class Harness:
    """``compile_one`` and ``stats`` run on one persistent one-worker pool
    sharing one cache, so repeats land where the first compile did."""

    def __init__(self, cache_dir):
        self.pool = WorkerPool(jobs=1)
        self.cache = ScheduleCache(cache_dir)

    def compile(self, source, machine=WARP, policy=CompilerPolicy(), **kw):
        return self.pool.submit(
            compile_one, "p", source, machine, policy, cache=self.cache, **kw
        ).result()

    def stats(self) -> dict:
        return self.cache.stats()


#: The pool the compiles run on, named in each test id.
@pytest.fixture(params=["thread"])
def harness(request, tmp_path):
    h = Harness(tmp_path / "cache")
    yield h
    h.pool.close()


def _same_output(result, source, machine=WARP, policy=CompilerPolicy()):
    fresh = compile_one("p", source, machine, policy)
    return (result.compiled.report() == fresh.compiled.report()
            and disassemble(result.compiled.code)
            == disassemble(fresh.compiled.code))


class TestSourceHits:
    def test_repeat_is_a_source_hit(self, harness):
        cold = harness.compile(SOURCE)
        warm = harness.compile(SOURCE)
        assert not cold.from_cache and warm.from_cache
        stats = harness.stats()
        assert stats["source_hits"] == 1 and stats["aliases"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert _same_output(warm, SOURCE)

    def test_same_ir_different_text_is_an_ir_key_hit(self, harness):
        harness.compile(SOURCE)
        respaced = harness.compile(RESPACED)
        assert respaced.from_cache
        stats = harness.stats()
        assert stats["source_hits"] == 0 and stats["hits"] == 1
        assert stats["aliases"] == 2 and stats["memory_entries"] == 1
        assert harness.compile(RESPACED).from_cache
        assert harness.stats()["source_hits"] == 1

    @pytest.mark.parametrize("machine, policy", [
        (SIMPLE, CompilerPolicy()),
        (make_warp(num_registers=32), CompilerPolicy()),
        (WARP, CompilerPolicy(pipeline=False)),
    ], ids=["simple", "warp-32-registers", "no-pipeline"])
    def test_other_machine_or_policy_misses(self, harness, machine, policy):
        harness.compile(SOURCE)
        other = harness.compile(SOURCE, machine, policy)
        assert other.ok and not other.from_cache
        assert harness.stats()["source_hits"] == 0
        assert _same_output(other, SOURCE, machine, policy)

    def test_pragma_source_hits_with_uncached_output(self, harness):
        source = SHORTEST_PATH.source
        assert "{$independent" in source
        harness.compile(source)
        warm = harness.compile(source)
        assert warm.from_cache and harness.stats()["source_hits"] == 1
        assert _same_output(warm, source)

    def test_parse_error_is_never_aliased(self, harness):
        first = harness.compile(BAD_SOURCE)
        again = harness.compile(BAD_SOURCE)
        assert not first.ok and not again.ok
        assert (again.error.phase, again.error.message) == (
            first.error.phase, first.error.message
        )
        assert first.error.phase == "frontend"
        assert harness.stats()["aliases"] == 0

    def test_source_hit_stats_have_no_frontend_phase(self, harness):
        cold = harness.compile(SOURCE, collect_stats=True)
        warm = harness.compile(SOURCE, collect_stats=True)
        assert "frontend" in cold.stats["phases"]
        assert warm.from_cache and warm.stats["phases"] == {}


@pytest.mark.parametrize("pool", ["thread"])
def test_served_replies_equal_uncached_compile(tmp_path, pool):
    local = compile_one("p", SOURCE, WARP)
    sock = str(tmp_path / "serve.sock")
    server = CompileServer(ServeConfig(socket_path=sock, jobs=1))
    with ServerThread(server):
        with ServeClient(socket_path=sock) as client:
            replies = [client.compile(SOURCE, name="p", disasm=True)
                       for _ in range(2)]
    assert [reply["from_cache"] for reply in replies] == [False, True]
    for reply in replies:
        assert reply["report"] == local.compiled.report()
        assert reply["disasm"] == disassemble(local.compiled.code)


class TestMemoryBound:
    def test_fill_past_bound(self):
        cache = ScheduleCache(None)
        extra = 10
        for i in range(MEMORY_ENTRIES + extra):
            cache.put(f"key{i}", i)
            cache.add_alias(f"alias{i}", f"key{i}")
            if i == MEMORY_ENTRIES - 1:
                # Touch the oldest entry so LRU, not FIFO, decides.
                assert cache.resolve("alias0") == 0
        stats = cache.stats()
        assert stats["memory_entries"] == MEMORY_ENTRIES
        assert stats["aliases"] == MEMORY_ENTRIES
        assert stats["evictions"] == extra
        assert stats["alias_evictions"] == extra
        assert cache.resolve("alias0") == 0
        assert cache.get(f"key{MEMORY_ENTRIES + extra - 1}") is not None
        assert cache.get(f"key{extra}") is None
        assert cache.resolve(f"alias{extra}") is None
        assert cache.get(f"key{extra + 1}") is not None

    def test_alias_to_evicted_entry_falls_back(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        cache = ScheduleCache(None)
        compile_one("p", SOURCE, WARP, cache=cache)
        cache.put("filler1", object())
        cache.put("filler2", object())
        stats = cache.stats()
        assert stats["memory_entries"] == 2 and stats["evictions"] == 1
        assert stats["aliases"] == 1
        again = compile_one("p", SOURCE, WARP, cache=cache)
        assert again.ok and not again.from_cache
        assert _same_output(again, SOURCE)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (0, 2)
        assert compile_one("p", SOURCE, WARP, cache=cache).from_cache
        assert cache.stats()["source_hits"] == 1

    def test_results_stay_correct_past_bound(self, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 3)
        cache = ScheduleCache(None)
        programs = SUITE[:5]
        for _ in range(2):
            for program in programs:
                result = compile_one("p", program.source, WARP, cache=cache)
                assert _same_output(result, program.source)
        stats = cache.stats()
        assert stats["memory_entries"] == 3 and stats["aliases"] == 3
        assert stats["evictions"] == 7 and stats["alias_evictions"] == 7


class TestResolveReadsMemoryOnly:
    """The alias probe never opens a file, so the compile server may run it
    on its event loop; a disk entry is reached through ``get`` alone."""

    @pytest.fixture
    def opens(self, monkeypatch):
        """Every ``open`` the cache module makes, each made to raise."""
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise OSError("no file access here")

        monkeypatch.setattr(cache_mod, "open", refuse, raising=False)
        return calls

    def test_memory_entry_resolves_without_opening(self, tmp_path, opens):
        cache = ScheduleCache(tmp_path / "cache")
        cold = compile_one("p", SOURCE, WARP, cache=cache)
        assert cold.ok and opens  # the miss probed the disk
        opens.clear()
        alias = cache_mod.source_key(SOURCE, WARP, CompilerPolicy())
        assert cache.resolve(alias) is cold.compiled
        assert opens == []
        assert cache.stats()["source_hits"] == 1

    def test_evicted_alias_entry_is_not_read_by_resolve(
        self, tmp_path, monkeypatch, opens
    ):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 1)
        cache = ScheduleCache(tmp_path / "cache")
        cache.put("key", "compiled")
        cache.add_alias("alias", "key")
        cache.put("filler", "other")
        assert cache.resolve("alias") is None
        assert opens == []
        assert (cache.hits, cache.misses, cache.source_hits) == (0, 0, 0)

    def test_disk_only_entry_is_served_by_get(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 1)
        cache = ScheduleCache(tmp_path / "cache")
        compile_one("p", SOURCE, WARP, cache=cache)
        cache.put("filler", "other")
        before = cache.stats()
        assert before["aliases"] == 1 and before["memory_entries"] == 1
        warm = compile_one("p", SOURCE, WARP, cache=cache, collect_stats=True)
        assert warm.ok and warm.from_cache
        assert "frontend" in warm.stats["phases"]
        assert _same_output(warm, SOURCE)
        after = cache.stats()
        assert after["hits"] - before["hits"] == 1
        assert after["misses"] == before["misses"]
        assert after["source_hits"] == 0


def test_thread_stress_keeps_counts(monkeypatch):
    """More threads than cores on one small cache with a tiny switch
    interval: every call counts exactly once, the bounds hold, and every
    result is what an uncached compile gives."""
    monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 3)
    cache = ScheduleCache(None)
    sources = [program.source for program in SUITE[:5]]
    reference = {
        source: compile_one("p", source, WARP).compiled.report()
        for source in sources
    }
    calls = [sources[i % len(sources)] for i in range(120)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with WorkerPool(jobs=8) as pool:
            futures = [
                pool.submit(compile_one, "p", source, WARP, cache=cache)
                for source in calls
            ]
            results = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    for source, result in zip(calls, results):
        assert result.ok and result.compiled.report() == reference[source]
    stats = cache.stats()
    assert stats["hits"] + stats["misses"] == len(calls)
    assert stats["source_hits"] <= stats["hits"]
    assert stats["memory_entries"] <= 3 and stats["aliases"] <= 3


class TestCompilerFingerprint:
    def test_computed_once(self):
        fingerprint = cache_mod.compiler_fingerprint()
        assert cache_mod.compiler_fingerprint() is fingerprint
        int(fingerprint, 16)  # raises if not hex

    def test_other_compiler_misses_old_entries(self, tmp_path, monkeypatch):
        disk, memory = ScheduleCache(tmp_path / "cache"), ScheduleCache(None)
        for cache in (disk, memory):
            compile_one("p", SOURCE, WARP, cache=cache)
        reopened = ScheduleCache(tmp_path / "cache")
        assert compile_one("p", SOURCE, WARP, cache=reopened).from_cache
        monkeypatch.setattr(cache_mod, "compiler_fingerprint", lambda: "0")
        # Neither the persisted entry nor the alias and memory entry of
        # the old compiler serve.
        reopened = ScheduleCache(tmp_path / "cache")
        assert not compile_one("p", SOURCE, WARP, cache=reopened).from_cache
        assert len(list((tmp_path / "cache").rglob("*.pkl"))) == 2
        assert not compile_one("p", SOURCE, WARP, cache=memory).from_cache
        assert memory.stats()["source_hits"] == 0
