"""The flat-window oracle: prolog/epilog coverage of modulo schedules.

:func:`audit_modulo_resources` and :func:`audit_precedence` prove the
steady state; :func:`audit_window` expands a window of concrete iterations
at ``i * ii + sigma`` and re-checks every precedence edge between the
instances it actually connects, plus absolute per-cycle resource usage
through the ramp-up and drain.  Valid schedules must always come back
clean; deliberately corrupted ones must always be reported, with the
violation kind naming the broken constraint.
"""

import dataclasses

import pytest

from repro.audit.oracle import (
    RESOURCE,
    WINDOW_PRECEDENCE,
    WINDOW_RESOURCE,
    audit_modulo_resources,
    audit_precedence,
    audit_window,
)
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph
from repro.ir import ProgramBuilder
from repro.machine import SIMPLE, WARP

from conftest import build_conditional, build_dot, build_vadd, cjump_on


def _vadd_schedule(machine=WARP):
    pb = ProgramBuilder("vadd")
    pb.array("a", 256)
    with pb.loop("i", 0, 99) as body:
        x = body.load("a", body.var)
        body.store("a", body.var, body.fadd(x, 1.5))
    loop = pb.finish().body[-1]
    lg = build_reduced_loop_graph(loop, machine)
    return ModuloScheduler(machine).schedule(lg.graph).schedule


def _steady_state_clean(schedule):
    return not audit_modulo_resources(schedule) and not audit_precedence(
        schedule
    )


def _kinds(violations):
    return {v.kind for v in violations}


def _recurrence_schedule(machine=WARP):
    pb = ProgramBuilder("acc")
    pb.array("a", 256)
    s = pb.fmov(0.0)
    with pb.loop("i", 0, 99) as body:
        body.fadd(s, body.load("a", body.var), dest=s)
    loop = pb.finish().body[-1]
    lg = build_reduced_loop_graph(loop, machine)
    return ModuloScheduler(machine).schedule(lg.graph).schedule


class TestValidSchedulesPass:
    @pytest.mark.parametrize("machine", [WARP, SIMPLE], ids=["warp", "simple"])
    def test_vadd(self, machine):
        schedule = _vadd_schedule(machine)
        assert _steady_state_clean(schedule)
        assert audit_window(schedule) == []

    @pytest.mark.parametrize("machine", [WARP, SIMPLE], ids=["warp", "simple"])
    def test_recurrence(self, machine):
        schedule = _recurrence_schedule(machine)
        assert _steady_state_clean(schedule)
        assert audit_window(schedule) == []

    def test_conditional_reduced_loop(self):
        loop = build_conditional().body[-1]
        lg = build_reduced_loop_graph(loop, WARP)
        schedule = ModuloScheduler(WARP).schedule(lg.graph).schedule
        assert audit_window(schedule) == []

    def test_long_window(self):
        # A much longer window than the default must stay clean too: the
        # steady state repeats, so violations cannot appear later.
        schedule = _vadd_schedule()
        assert audit_window(schedule, iterations=25) == []

    def test_zero_iterations_is_trivially_valid(self):
        schedule = _vadd_schedule()
        assert audit_window(schedule, iterations=0) == []


class TestCorruptedSchedulesFail:
    def test_shifted_op_breaks_same_iteration_precedence(self):
        # Pull a dependent op back onto its producer's cycle: the flat
        # expansion sees t(dst, i) - t(src, i) < delay in iteration 0.
        schedule = _vadd_schedule()
        edge = next(
            e for e in schedule.graph.edges if e.omega == 0 and e.delay > 1
        )
        schedule.times[edge.dst.index] = schedule.times[edge.src.index]
        assert WINDOW_PRECEDENCE in _kinds(audit_window(schedule))

    def test_shifted_op_breaks_loop_carried_precedence(self):
        # A recurrence edge (omega >= 1) constrains *successive* instances;
        # delaying the source by one full II erases exactly the slack the
        # modulo schedule promised the next iteration.
        schedule = _recurrence_schedule()
        # Self-edges (the accumulator's own recurrence) shift with their
        # node and can never be violated by retiming; pick a cross edge.
        edge = next(
            e for e in schedule.graph.edges
            if e.omega >= 1 and e.src.index != e.dst.index
        )
        # Place the source so instance pair (i, i + omega) has exactly one
        # cycle too little slack: t(dst, omega) - t(src, 0) == delay - 1.
        schedule.times[edge.src.index] = (
            schedule.times[edge.dst.index]
            + edge.omega * schedule.ii
            - edge.delay
            + 1
        )
        assert WINDOW_PRECEDENCE in _kinds(audit_window(schedule))

    def test_oversubscribed_resource(self):
        # vadd's load and store are WARP's only two mem ops and mem has a
        # single unit; forcing them onto one cycle doubles its usage.  The
        # same corruption must also trip the steady-state modulo check.
        schedule = _vadd_schedule()
        nodes = [
            n for n in schedule.graph.nodes
            if any(res == "mem" for _, res, _ in n.reservation)
        ]
        assert len(nodes) >= 2
        first, second = nodes[:2]
        # Move the earlier op onto the later op's cycle.  For vadd's
        # load -> store chain that also damages precedence, but the
        # oracles report every violation, so the resource clash must be
        # among them whichever unit the branch reserves.
        schedule.times[first.index] = schedule.times[second.index]
        for machine in (WARP, cjump_on("br")):
            moved = dataclasses.replace(schedule, machine=machine)
            assert WINDOW_RESOURCE in _kinds(audit_window(moved))
            assert RESOURCE in _kinds(audit_modulo_resources(moved))

    def test_pure_resource_clash_reports_resource(self):
        # Two *independent* loads (no edge between them) moved onto the
        # same cycle: precedence stays intact, so the failure must come
        # from the per-cycle resource sums and name the resource.
        pb = ProgramBuilder("loads")
        pb.array("a", 256)
        pb.array("b", 256)
        with pb.loop("i", 0, 99) as body:
            x = body.load("a", body.var)
            y = body.load("b", body.var)
            body.store("a", body.var, body.fadd(x, y))
        loop = pb.finish().body[-1]
        lg = build_reduced_loop_graph(loop, WARP)
        schedule = ModuloScheduler(WARP).schedule(lg.graph).schedule
        loads = [
            n for n in schedule.graph.nodes
            if any(res == "mem" for _, res, _ in n.reservation)
            and not n.defs == ()
        ]
        independent = None
        edges = {
            (e.src.index, e.dst.index) for e in schedule.graph.edges
        }
        for a in loads:
            for b in loads:
                if a.index == b.index:
                    continue
                if (a.index, b.index) in edges or (b.index, a.index) in edges:
                    continue
                independent = (a, b)
                break
            if independent:
                break
        assert independent is not None, "expected two independent mem ops"
        a, b = independent
        schedule.times[a.index] = schedule.times[b.index]
        violations = audit_window(schedule)
        assert _kinds(violations) == {WINDOW_RESOURCE}
        assert all("'mem'" in v.detail for v in violations)

    def test_branch_slot_is_accounted(self):
        # The loop branch claims one unit of the branch resource at cycle
        # ii-1 of every iteration.  vadd at ii=2 has a mem op on both
        # modulo rows, so a machine whose branch issues on 'mem' must clash
        # while the real 'seq' reservation (and a spare unit) stay clean.
        schedule = _vadd_schedule()
        assert audit_window(schedule) == []
        spare = dataclasses.replace(schedule, machine=cjump_on("br"))
        assert audit_window(spare) == []
        on_mem = dataclasses.replace(schedule, machine=cjump_on("mem"))
        violations = audit_window(on_mem)
        assert _kinds(violations) == {WINDOW_RESOURCE}
        assert all("'mem'" in v.detail for v in violations)
