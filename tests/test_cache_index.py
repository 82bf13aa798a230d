"""The schedule cache's disk layer and per-process shared unpickling.

A disk lookup opens the entry's file directly, so an entry any process
wrote is visible at once, and a missing, truncated or corrupt file is a
miss.  In-memory state stays bounded by ``MEMORY_ENTRIES`` however many
entries the directory holds.
"""

import pickle

import repro.batch.cache as cache_mod
from repro import WARP
from repro.batch import (
    ScheduleCache,
    WorkerPool,
    cache_key,
    compile_many,
)
from repro.core.compile import CompilerPolicy
from repro.frontend import parse_program
from repro.workloads import generate_suite

SUITE = generate_suite()


def _fill(cache_dir, count=4):
    """Compile ``count`` programs into a cache directory; return keys."""
    cache = ScheduleCache(cache_dir)
    report = compile_many(SUITE[:count], WARP, cache=cache)
    assert not report.errors
    keys = []
    for program in SUITE[:count]:
        ir, _ = parse_program(program.source)
        keys.append(cache_key(ir, WARP, CompilerPolicy()))
    return keys


class TestIndexLifecycle:
    def test_built_at_open(self, tmp_path):
        keys = _fill(tmp_path / "cache")
        reopened = ScheduleCache(tmp_path / "cache")
        for key in keys:
            assert reopened.get(key) is not None
        assert reopened.hits == len(keys)

    def test_clear_resets_index(self, tmp_path):
        keys = _fill(tmp_path / "cache")
        cache = ScheduleCache(tmp_path / "cache")
        cache.clear()
        assert not list((tmp_path / "cache").rglob("*.pkl"))
        reopened = ScheduleCache(tmp_path / "cache")
        assert all(reopened.get(key) is None for key in keys)

    def test_foreign_writes_are_visible_at_once(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        # Another instance (or process) writes entries into the same
        # directory after this one opened it...
        keys = _fill(tmp_path / "cache")
        # ...and this instance hits them with no refresh.
        for key in keys:
            assert cache.get(key) is not None
        assert cache.hits == len(keys) and cache.misses == 0

    def test_memory_stays_bounded_by_memory_entries(self, tmp_path, monkeypatch):
        keys = _fill(tmp_path / "cache", count=6)
        monkeypatch.setattr(cache_mod, "MEMORY_ENTRIES", 2)
        cache = ScheduleCache(tmp_path / "cache")
        for key in keys:
            assert cache.get(key) is not None
        stats = cache.stats()
        assert stats["hits"] == 6
        assert stats["memory_entries"] == 2
        assert stats["evictions"] == 4


class TestMissesTouchNoDisk:
    def test_vanished_entry_degrades_to_miss(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=2)
        cache = ScheduleCache(tmp_path / "cache")
        cache._entry_path(keys[0]).unlink()
        assert cache.get(keys[0]) is None
        assert cache.get(keys[1]) is not None

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=1)
        cache = ScheduleCache(tmp_path / "cache")
        cache._entry_path(keys[0]).write_bytes(b"not a pickle")
        assert cache.get(keys[0]) is None
        assert cache.misses == 1


class TestSharedUnpickling:
    def test_unpickle_resolves_to_per_process_instance(self, tmp_path):
        cache = ScheduleCache(tmp_path / "cache")
        first = pickle.loads(pickle.dumps(cache))
        second = pickle.loads(pickle.dumps(cache))
        assert first is second
        assert str(first.path) == str(cache.path)
        # The original is NOT the shared instance (tests stay isolated).
        assert first is not cache

    def test_shared_instance_keeps_memory_warm(self, tmp_path):
        keys = _fill(tmp_path / "cache", count=1)
        shared = pickle.loads(pickle.dumps(ScheduleCache(tmp_path / "cache")))
        assert shared.get(keys[0]) is not None  # disk hit, now in memory
        again = pickle.loads(pickle.dumps(ScheduleCache(tmp_path / "cache")))
        assert again is shared
        assert len(again._memory) == 1

    def test_memory_only_roundtrip_shares_too(self):
        first = pickle.loads(pickle.dumps(ScheduleCache(None)))
        second = pickle.loads(pickle.dumps(ScheduleCache(None)))
        assert first is second
        assert first.path is None

    def test_process_backend_warm_rerun_hits(self, tmp_path):
        cache_dir = tmp_path / "cache"
        warm = compile_many(SUITE[:4], WARP, cache=ScheduleCache(cache_dir))
        assert warm.cache_misses == 4
        rerun = compile_many(
            SUITE[:4], WARP, jobs=2, backend="process",
            cache=ScheduleCache(cache_dir),
        )
        assert rerun.cache_hits == 4

    def test_persistent_process_workers_see_each_others_entries(self, tmp_path):
        # Each worker writes part of the first pass; on the second pass a
        # program may land on the other worker, which must still hit.
        programs = SUITE[:24]
        cache = ScheduleCache(tmp_path / "cache")
        with WorkerPool(jobs=2, backend="process") as pool:
            first = compile_many(programs, WARP, pool=pool, cache=cache)
            second = compile_many(programs, WARP, pool=pool, cache=cache)
        assert not first.errors and not second.errors
        assert first.cache_misses == 24
        assert second.cache_hits == 24
