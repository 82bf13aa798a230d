"""Every entry point that parses source widens the policy by its
``{$independent ...}`` pragmas before compiling.

Each case captures the policy the entry point hands to
``compile_program`` and checks the pragma's arrays are in it.
"""

import pytest

import repro
import repro.audit.differential as differential
import repro.batch.driver as driver
from repro import WARP, CompilerPolicy
from repro.workloads.user_programs import SHORTEST_PATH

SOURCE = SHORTEST_PATH.source


def _pragma_arrays():
    from repro.frontend import parse_program

    _, pragmas = parse_program(SOURCE)
    assert pragmas.independent_arrays
    return pragmas.independent_arrays


@pytest.mark.parametrize("module, call", [
    (repro, lambda: repro.compile_source(SOURCE, WARP)),
    (driver, lambda: driver.compile_one("p", SOURCE, WARP)),
    (differential, lambda: differential.audit_program("p", SOURCE, WARP)),
], ids=["compile_source", "compile_one", "audit_program"])
def test_pragmas_reach_the_compiler(monkeypatch, module, call):
    seen = []
    compile_program = module.compile_program

    def capture(program, machine, policy=CompilerPolicy()):
        seen.append(policy)
        return compile_program(program, machine, policy)

    monkeypatch.setattr(module, "compile_program", capture)
    call()
    assert seen
    for policy in seen:
        assert _pragma_arrays() <= policy.independent_arrays
