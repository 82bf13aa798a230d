"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.core.compile import CompilerPolicy, compile_program
from repro.ir import ProgramBuilder
from repro.machine import SIMPLE, WARP, OpClass, make_custom, make_simple
from repro.machine.resources import ReservationTable
from repro.simulator import run_and_check


@pytest.fixture
def warp():
    return WARP


@pytest.fixture
def simple():
    return SIMPLE


def build_vadd(n: int = 100, size: int = 128) -> "Program":
    """a[i] := a[i] + 1.5 over n iterations."""
    pb = ProgramBuilder("vadd")
    a = pb.array("a", size)
    with pb.loop("i", 0, n - 1) as body:
        x = body.load(a, body.var)
        body.store(a, body.var, body.fadd(x, 1.5))
    return pb.finish()


def build_dot(n: int = 100) -> "Program":
    """out[0] := sum of a[i]*b[i]."""
    pb = ProgramBuilder("dot")
    a = pb.array("a", n + 8)
    b = pb.array("b", n + 8)
    out = pb.array("out", 2)
    s = pb.fmov(0.0)
    with pb.loop("i", 0, n - 1) as body:
        x = body.load(a, body.var)
        y = body.load(b, body.var)
        body.fadd(s, body.fmul(x, y), dest=s)
    pb.store(out, 0, s)
    return pb.finish()


def build_conditional(n: int = 64) -> "Program":
    """a[i] := a[i]*2 if positive else a[i]+10."""
    pb = ProgramBuilder("clip")
    a = pb.array("a", n + 8)
    with pb.loop("i", 0, n - 1) as body:
        x = body.load(a, body.var)
        cond = body.fgt(x, 0.0)
        with body.if_(cond) as (then, other):
            then.store(a, then.var, then.fmul(x, 2.0))
            other.store(a, other.var, other.fadd(x, 10.0))
    return pb.finish()


def cjump_on(unit: str):
    """WARP's units plus a spare ``br``, with the loop-back ``cjump``
    reserving ``unit`` instead of the sequencer."""
    return make_custom(
        f"cjump-on-{unit}",
        {"fadd": 1, "fmul": 1, "alu": 1, "mem": 1, "seq": 1, "br": 1},
        {"cjump": OpClass("cjump", 1, ReservationTable.single(unit))},
    )


def compile_and_check(program, machine=WARP, policy=CompilerPolicy(), **run_kwargs):
    """Compile, simulate, validate against the interpreter; return
    (compiled, stats)."""
    compiled = compile_program(program, machine, policy)
    stats = run_and_check(compiled.code, **run_kwargs)
    return compiled, stats
