"""The seeded graph regression corpus under ``tests/corpus/graphs/``.

Each entry pins one fuzz unit from the committed benchmark corpus (seed
2024, the ``bench_scheduler`` graph config) whose heuristic outcome is
interesting: a decline, or a schedule above the exact backend's proven
minimum II.  The runner regenerates the graph from its recorded seed and
asserts *current* behavior — heuristic decline vs. gap, and the exact
backend's certificate — so any scheduler change that moves one of these
units shows up as a corpus diff, not silently.
"""

import json
from pathlib import Path

import pytest

from repro.audit.generate import GraphConfig, random_dep_graph
from repro.audit.oracle import audit_result
from repro.core.pipeliner import ModuloScheduler
from repro.core.schedule import SchedulingFailure
from repro.exact import ExactScheduler
from repro.machine import SIMPLE, WARP

CORPUS = Path(__file__).parent / "corpus" / "graphs"
MACHINES = {"warp": WARP, "simple": SIMPLE}

REQUIRED_KEYS = {
    "name", "bug_class", "description", "machine", "generator", "expected",
}


def _entries():
    paths = sorted(CORPUS.glob("*.json"))
    assert paths, f"no graph corpus entries under {CORPUS}"
    return paths


@pytest.mark.parametrize("path", _entries(), ids=lambda p: p.stem)
def test_entry_schema(path):
    entry = json.loads(path.read_text())
    missing = REQUIRED_KEYS - set(entry)
    assert not missing, f"{path.name} lacks {sorted(missing)}"
    assert entry["name"] == path.stem
    assert entry["machine"] in MACHINES
    generator = entry["generator"]
    assert generator["kind"] == "graph"
    assert isinstance(generator["seed"], int)
    expected = entry["expected"]
    assert expected["exact_status"] in ("optimal", "infeasible")
    if expected["exact_status"] == "optimal":
        assert expected["exact_ii"] >= expected["mii"]


def _regenerate(entry):
    generator = entry["generator"]
    machine = MACHINES[entry["machine"]]
    config = GraphConfig(**generator["config"])
    return random_dep_graph(generator["seed"], machine, config), machine


@pytest.mark.parametrize("path", _entries(), ids=lambda p: p.stem)
def test_current_behavior_matches(path):
    """Heuristic decline/gap and the exact certificate, re-derived live."""
    entry = json.loads(path.read_text())
    graph, machine = _regenerate(entry)
    expected = entry["expected"]
    assert len(graph.nodes) == expected["nodes"], "generator drifted"

    heuristic = ModuloScheduler(machine)
    try:
        heuristic_ii = heuristic.schedule(graph).ii
    except SchedulingFailure:
        heuristic_ii = None
    assert heuristic_ii == expected["heuristic_ii"], (
        f"heuristic behavior changed: recorded"
        f" {expected['heuristic_ii']}, got {heuristic_ii} —"
        f" an improvement or regression; refresh the corpus entry"
    )

    outcome = ExactScheduler(machine).minimum_ii(graph)
    assert outcome.status == expected["exact_status"]
    assert outcome.ii == expected["exact_ii"]
    assert outcome.mii.mii == expected["mii"]
    if outcome.status == "optimal":
        assert not audit_result(outcome.result), "exact schedule is illegal"
        if heuristic_ii is not None:
            assert heuristic_ii >= outcome.ii


def test_corpus_covers_both_classes():
    """The corpus must keep at least one decline and one gap unit — the
    two behaviors this PR's oracle exists to distinguish."""
    classes = {
        json.loads(p.read_text())["bug_class"] for p in _entries()
    }
    assert "scheduler-decline" in classes
    assert "ii-gap" in classes
