"""Reference interpreter semantics."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.ir import FLOAT, INT, Imm, ProgramBuilder, Reg, run_program
from repro.ir.interp import Interpreter, InterpreterError, default_array_init

SRC = Path(__file__).resolve().parent.parent / "src"


def flat_init(name, index):
    return 1.0


class TestInterpreter:
    def test_arithmetic_into_memory(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        pb.store("out", 0, pb.fadd(1.25, 2.5))
        memory = run_program(pb.finish())
        assert memory[("out", 0)] == 3.75

    def test_loop_executes_trip_count_times(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        s = pb.fmov(0.0)
        with pb.loop("i", 0, 9) as body:
            body.fadd(s, 1.0, dest=s)
        pb.store("out", 0, s)
        assert run_program(pb.finish())[("out", 0)] == 10.0

    def test_loop_with_step(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        s = pb.mov(0)
        with pb.loop("i", 0, 9, step=3) as body:  # 0,3,6,9
            body.add(s, body.var, dest=s)
        pb.store("out", 0, pb.i2f(s))
        assert run_program(pb.finish())[("out", 0)] == 18.0

    def test_downward_loop(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        s = pb.mov(0)
        with pb.loop("i", 3, 1, step=-1) as body:
            body.add(s, body.var, dest=s)
        pb.store("out", 0, pb.i2f(s))
        assert run_program(pb.finish())[("out", 0)] == 6.0

    def test_zero_trip_loop_skipped(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        s = pb.fmov(5.0)
        with pb.loop("i", 1, 0) as body:
            body.fadd(s, 1.0, dest=s)
        pb.store("out", 0, s)
        assert run_program(pb.finish())[("out", 0)] == 5.0

    def test_conditional_both_arms(self):
        pb = ProgramBuilder("p")
        pb.array("out", 4)
        with pb.loop("i", 0, 1) as body:
            cond = body.eq(body.var, 0)
            with body.if_(cond) as (then, other):
                then.store("out", then.var, 1.0)
                other.store("out", other.var, 2.0)
        memory = run_program(pb.finish())
        assert memory[("out", 0)] == 1.0
        assert memory[("out", 1)] == 2.0

    def test_memory_initialised_deterministically(self):
        pb = ProgramBuilder("p")
        pb.array("a", 8)
        first = run_program(pb.finish())
        second = run_program(pb.finish())
        assert first == second

    def test_custom_array_init(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        memory = run_program(pb.finish(), array_init=lambda n, i: float(i * i))
        assert memory[("a", 3)] == 9.0

    def test_int_array_values_are_ints(self):
        pb = ProgramBuilder("p")
        pb.array("idx", 4, INT)
        memory = run_program(pb.finish(), array_init=lambda n, i: i + 0.9)
        assert memory[("idx", 1)] == 1  # truncated to int

    def test_load_offset_applies(self):
        pb = ProgramBuilder("p")
        pb.array("a", 8)
        pb.array("out", 2)
        base = pb.mov(2)
        value = pb.load("a", base, offset=3)
        pb.store("out", 0, value)
        memory = run_program(pb.finish(), array_init=lambda n, i: float(i))
        assert memory[("out", 0)] == 5.0

    def test_out_of_bounds_load_raises(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        pb.load("a", 10)
        with pytest.raises(InterpreterError):
            run_program(pb.finish())

    def test_out_of_bounds_store_raises(self):
        pb = ProgramBuilder("p")
        pb.array("a", 4)
        pb.store("a", -1, 0.0)
        with pytest.raises(InterpreterError):
            run_program(pb.finish())

    def test_undefined_register_read_raises(self):
        pb = ProgramBuilder("p")
        pb.array("out", 2)
        pb.store("out", 0, Reg("ghost", FLOAT))
        with pytest.raises(InterpreterError):
            run_program(pb.finish())

    def test_initial_regs_seed_inputs(self):
        pb = ProgramBuilder("p")
        pb.array("out", 2)
        n = Reg("n", FLOAT)
        pb.store("out", 0, pb.fmul(n, 2.0))
        memory = run_program(pb.finish(), initial_regs={n: 21.0})
        assert memory[("out", 0)] == 42.0

    def test_counts_ops_and_flops(self):
        pb = ProgramBuilder("p")
        pb.array("out", 2)
        pb.store("out", 0, pb.fadd(pb.fmul(2.0, 3.0), 1.0))
        interp = Interpreter(pb.finish())
        interp.run()
        assert interp.flop_count == 2
        assert interp.op_count == 3

    def test_loop_var_visible_after_loop(self):
        pb = ProgramBuilder("p")
        pb.array("out", 2)
        with pb.loop("i", 0, 4) as body:
            body.mov(0)
        pb.store("out", 0, pb.i2f(Reg("i", INT)))
        assert run_program(pb.finish())[("out", 0)] == 4.0


class TestDefaultArrayInit:
    def test_values_in_range_and_name_dependent(self):
        values = [default_array_init("a", i) for i in range(64)]
        assert all(-1.0 <= v <= 1.0 for v in values)
        assert len(set(values)) > 60
        assert values != [default_array_init("b", i) for i in range(64)]

    def test_independent_of_the_hash_seed(self):
        script = (
            "from repro.ir.interp import default_array_init as f;"
            "print([f(n, i) for n in ('a', 'xs', 'out') for i in range(16)])"
        )

        def values(seed):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            return subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True,
            ).stdout

        assert values("0") == values("1") != ""
