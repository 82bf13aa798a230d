"""The exact encoder's per-node time windows.

``ModuloCnf`` reads each node's window off one walk over the scheduler's
prepared SCC closures.  These tests hold the walk to the same rule read
off a numeric closure of the whole graph
(:func:`tests.reference.whole_graph_windows`) on the corpus graphs, the
seeded random graphs and the innermost loops of the 98 programs, each at
MII..MII+3.  They hold the per-node highs to the older rule, one ceiling
for every node (:class:`tests.reference.GlobalCeilingModuloCnf`): the
same verdict at every interval, no window wider, and every least schedule
the old encoding admits inside the new windows.  They also compile the
loops the narrower windows bring under the encoder's size cap.
"""

import json
from pathlib import Path

import pytest

import repro.exact.backend
from repro.audit.differential import audit_loop_schedules
from repro.audit.generate import GraphConfig, random_dep_graph
from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph, fresh_uid_scope
from repro.exact import (
    SAT,
    CdclSolver,
    EncodingTooLarge,
    ExactScheduler,
    ModuloCnf,
)
from repro.frontend import parse_program
from repro.machine import SIMPLE, WARP
from repro.obs import trace as obs
from repro.simulator import run_and_check
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

from reference import GlobalCeilingModuloCnf, whole_graph_windows

CORPUS = Path(__file__).parent / "corpus" / "graphs"

#: Seeded random graphs beyond the corpus, denser in recurrences.
RANDOM_CONFIG = GraphConfig(min_nodes=4, max_nodes=9, scc_density=0.6)
RANDOM_SEEDS = range(7000, 7030)

#: Residue patterns lifted per (graph, interval) in the lemma test.
MODELS_PER_INTERVAL = 6


def _corpus_graphs():
    machines = {"warp": WARP, "simple": SIMPLE}
    graphs = []
    for path in sorted(CORPUS.glob("*.json")):
        entry = json.loads(path.read_text())
        generator = entry["generator"]
        machine = machines[entry["machine"]]
        graph = random_dep_graph(
            generator["seed"], machine, GraphConfig(**generator["config"])
        )
        graphs.append((path.stem, graph, machine))
    return graphs


def _random_graphs():
    return [
        (f"seed{seed}", random_dep_graph(seed, WARP, RANDOM_CONFIG), WARP)
        for seed in RANDOM_SEEDS
    ]


def _program_loops():
    """The innermost loop graphs of the 98 programs: the 19 Livermore
    kernels, the 7 Table 4-1 programs and the 72-program suite."""
    sources = (
        [(f"livermore{k.number}", k.source)
         for k in LIVERMORE_KERNELS.values()]
        + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        + [(p.name, p.source) for p in generate_suite()]
    )
    graphs = []
    for name, source in sources:
        program, _ = parse_program(source)
        for i, loop in enumerate(program.inner_loops()):
            with fresh_uid_scope():
                lg = build_reduced_loop_graph(loop, WARP)
            graphs.append((f"{name}.{i}", lg.graph, WARP))
    return graphs


CORPUS_GRAPHS = _corpus_graphs()
ALL_GRAPHS = CORPUS_GRAPHS + _random_graphs()


def _reference_search(graph, machine):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            repro.exact.backend, "ModuloCnf", GlobalCeilingModuloCnf
        )
        return ExactScheduler(machine).minimum_ii(graph)


def _least_lift(graph, s, times):
    """The least solution of the precedence constraints with the residues
    of ``times``: start every node at its residue and raise it in steps of
    ``s`` until every edge holds."""
    lifted = {index: t % s for index, t in times.items()}
    changed = True
    while changed:
        changed = False
        for edge in graph.edges:
            need = lifted[edge.src.index] + edge.delay - s * edge.omega
            dst = edge.dst.index
            while lifted[dst] < need:
                lifted[dst] += s
                changed = True
    return lifted


def _residue_models(encoding, limit):
    """Up to ``limit`` decoded models of ``encoding`` with pairwise distinct
    residue patterns (each found model's pattern is blocked)."""
    s = encoding.s
    clauses = [list(c) for c in encoding.clauses]
    found = []
    while len(found) < limit:
        result = CdclSolver(encoding.num_vars, clauses).solve()
        if result.status != SAT:
            break
        times = encoding.decode(result.model)
        found.append(times)
        block = []
        for node in encoding.graph.nodes:
            lo, hi = encoding.window(node.index)
            v = encoding._local[node.index]
            block.extend(
                encoding._x[v][t]
                for t in range(lo, hi + 1)
                if t % s != times[node.index] % s
            )
        if not block:
            break
        clauses.append(block)
    return found


class TestAgainstTheWholeGraphClosure:
    #: Intervals checked above each graph's MII.
    SPAN = 4

    def _check(self, graphs):
        checked = 0
        for name, graph, machine in graphs:
            prepared = ModuloScheduler(machine).prepare(graph)
            for s in range(prepared.mii.mii, prepared.mii.mii + self.SPAN):
                assert ModuloCnf.time_windows(prepared, s) == (
                    whole_graph_windows(graph, s)
                ), (name, s)
                checked += 1
        return checked

    def test_graphs(self):
        assert self._check(ALL_GRAPHS) == self.SPAN * len(ALL_GRAPHS)

    def test_program_loops(self):
        loops = _program_loops()
        assert len(loops) > 98
        assert self._check(loops) == self.SPAN * len(loops)

    def test_below_the_recurrence_bound_is_rejected(self):
        _, graph, machine = next(
            g for g in CORPUS_GRAPHS if g[0] == "gap_2086"
        )
        prepared = ModuloScheduler(machine).prepare(graph)
        assert prepared.mii.recurrence > 1
        with pytest.raises(ValueError, match="recurrence bound"):
            ModuloCnf(prepared, machine, prepared.mii.recurrence - 1)


class TestAgainstTheGlobalCeiling:
    @pytest.mark.parametrize(
        "name,graph,machine", ALL_GRAPHS, ids=[g[0] for g in ALL_GRAPHS]
    )
    def test_statuses_match_the_reference(self, name, graph, machine):
        reference = _reference_search(graph, machine)
        if reference.status == "too_large":
            pytest.skip("the reference encoding exceeds its cap")
        outcome = ExactScheduler(machine).minimum_ii(graph)
        assert outcome.statuses == reference.statuses
        assert (outcome.status, outcome.ii) == (
            reference.status,
            reference.ii,
        )

    @pytest.mark.parametrize(
        "name,graph,machine", ALL_GRAPHS, ids=[g[0] for g in ALL_GRAPHS]
    )
    def test_least_schedules_lie_inside_the_windows(
        self, name, graph, machine
    ):
        """The completeness lemma, checked on the reference's models: each
        model's least lift keeps its rows (same residues) and lands inside
        the per-node windows, which are never wider than the old ones."""
        prepared = ModuloScheduler(machine).prepare(graph)
        outcome = ExactScheduler(machine).minimum_ii(graph)
        if not outcome.statuses:
            pytest.skip("no interval reaches the encoder")
        checked = 0
        for s in sorted(outcome.statuses):
            try:
                old = GlobalCeilingModuloCnf(prepared, machine, s)
            except EncodingTooLarge:
                continue
            new = ModuloCnf(prepared, machine, s)
            for node in graph.nodes:
                old_lo, old_hi = old.window(node.index)
                lo, hi = new.window(node.index)
                assert lo == old_lo
                assert lo <= hi <= old_hi
            for times in _residue_models(old, MODELS_PER_INTERVAL):
                lifted = _least_lift(graph, s, times)
                for node in graph.nodes:
                    lo, hi = new.window(node.index)
                    assert lo <= lifted[node.index] <= hi, (s, node)
                checked += 1
        if outcome.status == "optimal":
            assert checked > 0


class TestFormulaSize:
    def test_corpus_clauses_below_the_reference(self):
        _, graph, machine = next(
            g for g in CORPUS_GRAPHS if g[0] == "gap_2086"
        )
        s = 6  # the proven minimum
        prepared = ModuloScheduler(machine).prepare(graph)
        new = ModuloCnf(prepared, machine, s)
        old = GlobalCeilingModuloCnf(prepared, machine, s)
        assert len(new.clauses) < len(old.clauses)
        assert new.num_vars < old.num_vars

    def test_size_counters_fire_per_encoding(self, monkeypatch):
        """``exact_vars`` and ``exact_clauses`` sum every encoding the
        search hands the solver."""
        built = []

        class Recording(ModuloCnf):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append((self.num_vars, len(self.clauses)))

        monkeypatch.setattr(repro.exact.backend, "ModuloCnf", Recording)
        _, graph, machine = next(
            g for g in CORPUS_GRAPHS if g[0] == "gap_2154"
        )
        with obs.observe() as observer:
            ExactScheduler(machine).minimum_ii(graph)
        assert built
        counters = observer.counters
        assert counters["exact_sat_calls"] == len(built)
        assert counters["exact_vars"] == sum(v for v, _ in built)
        assert counters["exact_clauses"] == sum(c for _, c in built)


def _admitted_sources():
    suite = {p.name: p.source for p in generate_suite()}
    return [
        ("livermore20", LIVERMORE_KERNELS[20].source),
        ("fft", USER_PROGRAMS["fft"].source),
    ] + [
        (name, suite[name])
        for name in ("suite3", "suite21", "suite41", "suite61")
    ]


ADMITTED = _admitted_sources()


class TestAdmittedLoops:
    """Loops whose old windows exceeded ``MAX_TIME_SLOTS``: the narrower
    windows bring every loop of these programs under the encoder's size
    cap, and the exact backend compiles them to code that runs."""

    POLICY = CompilerPolicy(scheduler_backend="exact")

    @pytest.mark.parametrize(
        "name,source", ADMITTED, ids=[name for name, _ in ADMITTED]
    )
    def test_compiles_exactly_and_runs(self, name, source):
        program, _ = parse_program(source)
        loops = program.inner_loops()
        assert loops
        for loop in loops:
            with fresh_uid_scope():
                lg = build_reduced_loop_graph(loop, WARP)
            outcome = ExactScheduler(WARP).minimum_ii(lg.graph)
            assert outcome.status != "too_large", loop
        result = compile_one(
            name, source, WARP, self.POLICY, collect_stats=True
        )
        assert result.ok, result.error
        assert result.stats["counters"].get("exact_too_large", 0) == 0
        run_and_check(result.compiled.code)
        assert audit_loop_schedules(program, WARP, self.POLICY, name) == []
