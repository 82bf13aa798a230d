"""The exact backend's incumbent: the heuristic's schedule it starts from.

:meth:`repro.exact.ExactScheduler.schedule` runs the heuristic first and
probes only the intervals below its II.  So the exact II never exceeds the
heuristic's; a loop whose II the SAT search cannot lower keeps the
heuristic's own schedule, and its program's code is the heuristic's byte
for byte; and a loop the heuristic schedules at MII leaves no interval to
probe.  Checked on the corpus graphs, seeded fuzz graphs and the 98
programs: the 19 Livermore kernels, the 7 Table 4-1 programs and the
72-program suite.
"""

import json
from pathlib import Path

import pytest

from repro.audit.generate import GraphConfig, random_dep_graph
from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.core.display import disassemble
from repro.core.pipeliner import ModuloScheduler
from repro.core.schedule import SchedulingFailure
from repro.exact import ExactScheduler
from repro.machine import SIMPLE, WARP
from repro.obs import trace as obs
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

CORPUS = Path(__file__).parent / "corpus" / "graphs"

#: Seeded fuzz graphs: the scheduler benchmark's shape and seeds.
FUZZ_CONFIG = GraphConfig(min_nodes=4, max_nodes=10, scc_density=0.35)
FUZZ_SEEDS = range(2000, 2100)

HEURISTIC = CompilerPolicy()
EXACT = CompilerPolicy(scheduler_backend="exact")


def _graphs():
    machines = {"warp": WARP, "simple": SIMPLE}
    graphs = []
    for path in sorted(CORPUS.glob("*.json")):
        entry = json.loads(path.read_text())
        generator = entry["generator"]
        config = GraphConfig(**generator["config"])
        graphs.append((path.stem, generator["seed"], config,
                       machines[entry["machine"]]))
    graphs += [(f"fuzz{seed}", seed, FUZZ_CONFIG, WARP)
               for seed in FUZZ_SEEDS]
    return graphs


def _programs():
    return (
        [(f"livermore{k.number}", k.source)
         for k in LIVERMORE_KERNELS.values()]
        + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        + [(p.name, p.source) for p in generate_suite()]
    )


GRAPHS = _graphs()
PROGRAMS = _programs()


def _compile(name, source, policy):
    result = compile_one(name, source, WARP, policy, collect_stats=True)
    assert result.ok, result.error
    return result


@pytest.mark.parametrize(
    "name,seed,config,machine", GRAPHS, ids=[g[0] for g in GRAPHS]
)
def test_graph_ii_never_above_the_heuristic(name, seed, config, machine):
    graph = random_dep_graph(seed, machine, config)
    exact = ExactScheduler(machine)
    try:
        heuristic_ii = ModuloScheduler(machine).schedule(graph).ii
    except SchedulingFailure:
        heuristic_ii = None
    try:
        exact_ii = exact.schedule(graph).ii
    except SchedulingFailure:
        assert heuristic_ii is None
        return
    if heuristic_ii is not None:
        assert exact_ii <= heuristic_ii


@pytest.mark.parametrize(
    "name,source", PROGRAMS, ids=[name for name, _ in PROGRAMS]
)
def test_program_loops_never_above_the_heuristic(name, source):
    """Each loop the heuristic pipelines, the exact backend pipelines at
    an II no larger; a program where every loop keeps its II compiles to
    the heuristic's code."""
    heuristic = _compile(name, source, HEURISTIC).compiled
    exact = _compile(name, source, EXACT).compiled
    assert len(exact.loops) == len(heuristic.loops)
    for h, e in zip(heuristic.loops, exact.loops):
        if h.pipelined:
            assert e.pipelined, (e.label, e.reason)
            assert e.ii <= h.ii, e.label
    if [loop.ii for loop in exact.loops] == [
        loop.ii for loop in heuristic.loops
    ]:
        assert disassemble(exact.code) == disassemble(heuristic.code)


def test_livermore20_keeps_the_heuristic_code():
    # The heuristic already reaches the minimum II 28, so the exact
    # backend keeps its schedule, stages and all.
    source = LIVERMORE_KERNELS[20].source
    heuristic = _compile("livermore20", source, HEURISTIC).compiled
    exact = _compile("livermore20", source, EXACT).compiled
    assert [loop.ii for loop in exact.loops] == [28]
    assert disassemble(exact.code) == disassemble(heuristic.code)


class TestSatCallsFire:
    """``exact_sat_calls`` stays at zero exactly where there is nothing
    below the incumbent to probe."""

    def test_loop_at_mii_makes_no_sat_call(self):
        result = _compile(
            "livermore1", LIVERMORE_KERNELS[1].source, EXACT
        )
        (loop,) = result.compiled.loops
        assert loop.pipelined and loop.ii == loop.mii
        counters = result.stats["counters"]
        assert counters["loops_at_mii"] == 1
        assert counters.get("exact_sat_calls", 0) == 0
        assert counters.get("exact_ii_attempts", 0) == 0
        # Nothing below MII to probe: vacuously, every interval below the
        # incumbent was refuted.
        assert loop.exact_search == "infeasible"

    def test_loop_above_mii_probes_below_the_incumbent(self):
        # suite3: the heuristic's II is 21, the proven minimum MII 14.
        suite3 = next(p for p in generate_suite() if p.name == "suite3")
        heuristic = _compile("suite3", suite3.source, HEURISTIC)
        exact = _compile("suite3", suite3.source, EXACT)
        assert [loop.ii for loop in heuristic.compiled.loops] == [21]
        assert [loop.ii for loop in exact.compiled.loops] == [14]
        assert exact.stats["counters"]["exact_sat_calls"] >= 1

    def test_graph_at_mii_makes_no_sat_call(self):
        graph = random_dep_graph(2000, WARP, FUZZ_CONFIG)
        with obs.observe() as observer:
            result = ExactScheduler(WARP).schedule(graph)
        assert result.ii == result.schedule.mii.mii
        assert observer.counters.get("exact_sat_calls", 0) == 0
        assert observer.phase_calls["mii"] == 1  # one prepare per graph


class TestSearchStatusRecorded:
    """Each loop's report says how the exact search ended, so a loop that
    keeps the incumbent tells a refuted interval from a blown budget."""

    def test_closed_gap_records_optimal(self):
        suite3 = next(p for p in generate_suite() if p.name == "suite3")
        exact = _compile("suite3", suite3.source, EXACT)
        (loop,) = exact.compiled.loops
        assert loop.exact_search == "optimal"
        (record,) = exact.stats["loops"]
        assert record["exact_search"] == "optimal"

    def test_heuristic_records_nothing(self):
        suite3 = next(p for p in generate_suite() if p.name == "suite3")
        heuristic = _compile("suite3", suite3.source, HEURISTIC)
        (loop,) = heuristic.compiled.loops
        assert loop.exact_search == ""
        (record,) = heuristic.stats["loops"]
        assert record["exact_search"] == ""

    def test_blown_budget_records_unknown(self):
        # Corpus seed 2062: MII 5 needs a real UNSAT proof, which one
        # conflict cannot give, so the heuristic's II 6 stands.
        graph = random_dep_graph(2062, WARP, FUZZ_CONFIG)
        result = ExactScheduler(WARP, max_conflicts=1).schedule(graph)
        assert result.ii == 6
        assert result.exact_search == "unknown"
