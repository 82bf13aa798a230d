"""repro: a reproduction of Lam's PLDI 1988 software pipelining paper.

Top-level convenience API::

    from repro import compile_source, WARP
    from repro.simulator import run_and_check

    compiled = compile_source(source_text, machine=WARP)
    print(compiled.report())
    stats = run_and_check(compiled.code)
    print(stats.mflops, "MFLOPS")
"""

from repro.machine import SIMPLE, WARP, MachineDescription, make_custom, make_warp
from repro.core.compile import (
    CompiledProgram,
    CompilerPolicy,
    LoopReport,
    compile_program,
)
from repro.batch import (
    BatchReport,
    CompileError,
    CompileResult,
    ScheduleCache,
    compile_many,
    compile_one,
)
from repro.obs import CompileObserver, observe

__version__ = "1.0.0"


def compile_source(
    source: str,
    machine: MachineDescription = WARP,
    policy: CompilerPolicy = CompilerPolicy(),
) -> CompiledProgram:
    """Parse a W2-like source program and compile it for ``machine``.

    Source-level ``{$independent arr}`` pragmas (the paper's array
    disambiguation directives) are merged into the policy.
    """
    from repro.frontend import parse_with_policy

    program, policy = parse_with_policy(source, policy)
    return compile_program(program, machine, policy)


__all__ = [
    "WARP",
    "SIMPLE",
    "MachineDescription",
    "make_warp",
    "make_custom",
    "CompiledProgram",
    "CompilerPolicy",
    "LoopReport",
    "compile_program",
    "compile_source",
    "BatchReport",
    "CompileError",
    "CompileObserver",
    "CompileResult",
    "ScheduleCache",
    "compile_many",
    "compile_one",
    "observe",
]
