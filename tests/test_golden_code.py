"""Golden emitted code: one sha256 per program and configuration.

``data/code_digests.json`` holds, for each of the 98 programs (the 19
Livermore kernels, the 7 Table 4-1 programs and ``generate_suite(1988,
72)``), the sha256 of ``disassemble(code)`` followed by ``report()``, per
configuration: a ``(machine, policy)`` pair.  On WARP: the heuristic
backend, the exact backend, pipelining off and conditionals overlappable
(``serialize_ifs=False``, whose reduced IF nodes can span more than one
interval).  With the default policy: SIMPLE (one unit of each kind) and
``wide2`` (two units of every kind but ``seq``), so digests also pin the
resource checks on machines whose unit counts differ from WARP's.  A
change that is meant to keep the emitted code must leave every digest as
it is.  A change that moves code on purpose
regenerates the file and names the programs that moved::

    PYTHONPATH=src python tests/test_golden_code.py
"""

from __future__ import annotations

import hashlib
import json
import pathlib

import pytest

from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.core.display import disassemble
from repro.machine import SIMPLE, WARP, MachineDescription, make_custom
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite

DIGESTS = pathlib.Path(__file__).parent / "data" / "code_digests.json"

WIDE2 = make_custom(
    "wide2", {"fadd": 2, "fmul": 2, "alu": 2, "mem": 2, "seq": 1}
)

CONFIGURATIONS: dict[str, tuple[MachineDescription, CompilerPolicy]] = {
    "heuristic": (WARP, CompilerPolicy()),
    "exact": (WARP, CompilerPolicy(scheduler_backend="exact")),
    "no_pipeline": (WARP, CompilerPolicy(pipeline=False)),
    "overlapped_ifs": (WARP, CompilerPolicy(serialize_ifs=False)),
    "simple": (SIMPLE, CompilerPolicy()),
    "wide2": (WIDE2, CompilerPolicy()),
}


def programs() -> list[tuple[str, str]]:
    return (
        [(f"livermore{k.number}", k.source)
         for k in LIVERMORE_KERNELS.values()]
        + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        + [(p.name, p.source) for p in generate_suite(1988, 72)]
    )


def digests(
    machine: MachineDescription, policy: CompilerPolicy
) -> dict[str, str]:
    out = {}
    for name, source in programs():
        result = compile_one(name, source, machine, policy)
        assert result.ok, result.error
        compiled = result.compiled
        text = disassemble(compiled.code) + "\n" + compiled.report()
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


@pytest.mark.parametrize("configuration", sorted(CONFIGURATIONS))
def test_emitted_code_matches_the_golden_digests(configuration):
    expected = json.loads(DIGESTS.read_text())[configuration]
    got = digests(*CONFIGURATIONS[configuration])
    assert len(got) == 98
    moved = sorted(name for name in got if got[name] != expected.get(name))
    assert not moved, f"emitted code moved under {configuration}: {moved}"
    assert set(got) == set(expected)


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    table = {
        name: digests(*configuration)
        for name, configuration in CONFIGURATIONS.items()
    }
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, table.values()))} digests to {DIGESTS}")
