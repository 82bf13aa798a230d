"""Phase spans of the compile observer (repro.obs), and the per-loop
records ``--stats`` reports with them."""

from dataclasses import asdict

import pytest

import repro.core.compile as compile_mod
from repro import obs
from repro.batch.cache import ScheduleCache
from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.machine import WARP
from repro.obs.trace import PhaseSpan
from repro.workloads import generate_suite

SOURCE = """
program v;
var a: array[64] of float;
begin
  for i := 0 to 49 do
    a[i] := a[i] * 2.0;
end.
"""


class TestPhaseSpans:
    def test_an_exception_in_emit_names_the_emit_phase(self, monkeypatch):
        def broken_emit(*args, **kwargs):
            raise RuntimeError("emission failed")

        monkeypatch.setattr(compile_mod, "emit_pipelined_loop", broken_emit)
        result = compile_one("v", SOURCE, WARP, CompilerPolicy(),
                             collect_stats=True)
        assert not result.ok
        assert result.error.phase == "emit"
        assert result.error.error_type == "RuntimeError"
        assert result.stats["phases"]["emit"]["calls"] >= 1

    def test_the_exception_still_propagates(self):
        with obs.observe() as observer:
            with pytest.raises(KeyError):
                with obs.phase("deps", loop="L"):
                    raise KeyError("x")
        (event,) = observer.events
        assert event.name == "deps" and event.meta == {"loop": "L"}
        assert observer.phase_calls == {"deps": 1}

    def test_mutated_meta_reaches_the_event(self):
        with obs.observe() as observer:
            with obs.phase("ii_attempt", ii=3) as meta:
                meta["schedulable"] = True
        (event,) = observer.events
        assert event.meta == {"ii": 3, "schedulable": True}
        assert event.to_dict()["schedulable"] is True

    def test_nested_phases_append_in_exit_order(self):
        with obs.observe() as observer:
            with obs.phase("outer"):
                with obs.phase("inner"):
                    pass
                with obs.phase("second"):
                    pass
        assert [e.name for e in observer.events] == [
            "inner", "second", "outer"
        ]
        outer = observer.events[-1]
        assert all(e.at >= outer.at for e in observer.events)
        assert outer.seconds >= sum(e.seconds for e in observer.events[:2])

    def test_without_an_observer_a_span_only_binds_meta(self):
        assert obs.current() is None
        span = obs.phase("x", a=1)
        assert isinstance(span, PhaseSpan)
        with span as meta:
            assert meta == {"a": 1}
        with obs.observe() as observer:
            pass
        assert observer.events == [] and observer.phase_calls == {}

    def test_observer_phase_times_and_counts(self):
        observer = obs.CompileObserver()
        for _ in range(3):
            with observer.phase("emit", loop="L") as meta:
                assert meta == {"loop": "L"}
        assert observer.phase_calls == {"emit": 3}
        assert observer.phase_seconds["emit"] == pytest.approx(
            sum(e.seconds for e in observer.events)
        )

    def test_spans_carry_no_per_instance_dict(self):
        span = obs.CompileObserver().phase("emit")
        with pytest.raises(AttributeError):
            span.extra = 1

    def test_to_dict_keys_are_unchanged(self):
        result = compile_one("v", SOURCE, WARP, CompilerPolicy(),
                             collect_stats=True)
        stats = result.stats
        assert set(stats) == {
            "wall_seconds", "phases", "counters", "loops", "events"
        }
        assert set(stats["phases"]["emit"]) == {"seconds", "calls"}
        assert {"frontend", "verify", "cse", "deps", "listsched", "mii",
                "ii_attempt", "mve", "emit"} <= set(stats["phases"])
        for event in stats["events"]:
            assert {"name", "at", "seconds"} <= set(event)
        (attempt,) = [e for e in stats["events"] if e["name"] == "ii_attempt"]
        assert attempt["ii"] >= 1


class TestOneLoopRecord:
    """``stats["loops"]`` is the compiled program's own ``LoopReport``s,
    whether the program was compiled, read back by its IR key or answered
    from its source alias."""

    def test_miss_disk_hit_and_alias_hit_report_the_same_loops(
        self, tmp_path
    ):
        suite3 = next(p for p in generate_suite() if p.name == "suite3")
        miss = compile_one("suite3", suite3.source, WARP,
                           cache=ScheduleCache(tmp_path), collect_stats=True)
        warm = ScheduleCache(tmp_path)
        disk = compile_one("suite3", suite3.source, WARP,
                           cache=warm, collect_stats=True)
        alias = compile_one("suite3", suite3.source, WARP,
                            cache=warm, collect_stats=True)
        assert [miss.from_cache, disk.from_cache, alias.from_cache] == [
            False, True, True
        ]
        assert "frontend" in disk.stats["phases"]
        assert alias.stats["phases"] == {}  # no frontend: the alias hit
        for result in (miss, disk, alias):
            assert result.stats["loops"] == [
                asdict(loop) for loop in result.compiled.loops
            ]
        assert miss.stats["loops"] == disk.stats["loops"]
        assert miss.stats["loops"] == alias.stats["loops"]
        (record,) = miss.stats["loops"]
        assert record["resource_mii"] == record["mii"] == 14
        assert record["recurrence_mii"] is not None
        assert record["has_recurrence"] is not None

    def test_an_error_reports_no_loops(self):
        result = compile_one("bad", "program", WARP, collect_stats=True)
        assert not result.ok
        assert result.stats["loops"] == []

    def test_the_observer_keeps_no_loop_records(self):
        assert not hasattr(obs, "record_loop")
        assert "loops" not in obs.CompileObserver().to_dict()
