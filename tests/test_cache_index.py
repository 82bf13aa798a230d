"""The schedule cache's disk layer.

A disk lookup opens the entry's file directly, so an entry any process
wrote is visible at once, and a missing, truncated or corrupt file is a
miss.  In-memory state stays bounded by ``MEMORY_ENTRIES`` however many
entries the directory holds.
"""

import repro.batch.cache as cache_mod
from repro import WARP
from repro.batch import (
    ScheduleCache,
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
