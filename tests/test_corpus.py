"""The regression corpus: every case a fuzzing campaign (or a fixed bug)
contributed, replayed through the full audit on every run.

Each ``tests/corpus/*.json`` entry is one program with a ``bug_class``
naming the invariant or bug family it pins down.  A case is added by
reproducing a failure (``python -m repro fuzz --seed <case seed> --count 1
--graphs 0`` prints the source) and saving it here once fixed; the audit
must then stay clean forever.
"""

import json
from pathlib import Path

import pytest

from repro.audit import audit_program
from repro.machine import MACHINES

CORPUS_DIR = Path(__file__).parent / "corpus"


def _entries():
    return sorted(CORPUS_DIR.glob("*.json"))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def test_corpus_is_populated():
    assert len(_entries()) >= 5


def test_corpus_entries_well_formed():
    names = set()
    for path in _entries():
        entry = _load(path)
        for key in ("name", "bug_class", "description", "machine", "source"):
            assert key in entry, f"{path.name} missing {key!r}"
        assert entry["machine"] in MACHINES
        assert entry["name"] == path.stem
        assert entry["name"] not in names
        names.add(entry["name"])


def test_corpus_covers_distinct_bug_classes():
    classes = {_load(path)["bug_class"] for path in _entries()}
    assert len(classes) >= 4


@pytest.mark.parametrize(
    "path", _entries(), ids=lambda p: p.stem
)
def test_corpus_case_audits_clean(path):
    entry = _load(path)
    violations = audit_program(
        entry["name"], entry["source"], MACHINES[entry["machine"]]
    )
    assert violations == [], "\n".join(str(v) for v in violations)
