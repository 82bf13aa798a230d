"""Renamed copies keep their operation's shape.

:meth:`repro.ir.ops.Operation.with_operands` copies an operation without
re-running ``__post_init__``'s arity and memory-operand checks, on the
contract that a renaming maps operands one to one.  Every operation that
reaches CSE's output or the emitted code of the 98 programs, under each
configuration, must therefore rebuild through ``Operation(**fields)``
unchanged: the skipped checks could not have fired.
"""

import dataclasses

import pytest

from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.core.emit import (
    BlockRegion,
    CondRegion,
    GuardedRegion,
    PipelinedLoopRegion,
    SequentialLoopRegion,
)
from repro.frontend import parse_program
from repro.ir import Operation
from repro.ir.cse import eliminate_common_subexpressions
from repro.ir.scan import walk_operations
from repro.machine import WARP
from repro.workloads import LIVERMORE_KERNELS, USER_PROGRAMS, generate_suite


def _ninety_eight():
    return (
        [(f"livermore{k.number}", k.source)
         for k in LIVERMORE_KERNELS.values()]
        + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        + [(p.name, p.source) for p in generate_suite(1988, 72)]
    )


def _emitted_operations(regions):
    for region in regions:
        if isinstance(region, BlockRegion):
            instructions = region.instructions
        elif isinstance(region, PipelinedLoopRegion):
            instructions = region.prolog + region.kernel + region.epilog
        elif isinstance(region, SequentialLoopRegion):
            yield from _emitted_operations(region.body)
            continue
        elif isinstance(region, GuardedRegion):
            yield from _emitted_operations(region.main)
            yield from _emitted_operations(region.fallback)
            continue
        elif isinstance(region, CondRegion):
            yield from _emitted_operations(region.then_regions)
            yield from _emitted_operations(region.else_regions)
            continue
        else:
            raise TypeError(f"unknown region {region!r}")
        for instruction in instructions:
            for slot in instruction.slots:
                yield slot.op


def _assert_rebuilds(op):
    fields = {f.name: getattr(op, f.name) for f in dataclasses.fields(op)}
    assert Operation(**fields) == op
    assert set(vars(op)) == set(fields)


def test_cse_output_rebuilds():
    checked = 0
    for _name, source in _ninety_eight():
        program, _ = parse_program(source)
        for op in walk_operations(eliminate_common_subexpressions(program).body):
            _assert_rebuilds(op)
            checked += 1
    assert checked > 0


@pytest.mark.parametrize(
    "policy",
    [CompilerPolicy(), CompilerPolicy(scheduler_backend="exact"),
     CompilerPolicy(pipeline=False)],
    ids=["heuristic", "exact", "no_pipeline"],
)
def test_emitted_operations_rebuild(policy):
    checked = 0
    for name, source in _ninety_eight():
        result = compile_one(name, source, WARP, policy)
        assert result.ok, result.error
        for op in _emitted_operations(result.compiled.code.regions):
            _assert_rebuilds(op)
            checked += 1
    assert checked > 0
