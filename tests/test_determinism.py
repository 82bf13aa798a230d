"""Compilation must be a pure function of (source, machine, policy).

Two compilations of the same program — back to back, on different
threads, or via a cold versus warm schedule cache — must produce
byte-identical code listings and identical loop reports.  This pins down
the compilation-scoped uid counters (`fresh_uid_scope`) and guards the
cache against serving anything the compiler would not have produced.
"""

import pytest

from repro import WARP, CompilerPolicy
from repro.batch import ScheduleCache, compile_one
from repro.batch.cache import (
    cache_key,
    fingerprint_machine,
    fingerprint_policy,
    fingerprint_program,
)
from repro.core.compile import compile_program
from repro.core.display import disassemble
from repro.frontend import parse_program
from repro.machine import SIMPLE, make_warp
from repro.workloads import LIVERMORE_KERNELS, generate_suite

from conftest import build_conditional, build_dot

SUITE = generate_suite()
# A conditional program exercises the ReducedIf uid numbering that leaked
# into disassembly before compilation-scoped counters.
SAMPLES = [p for p in SUITE if p.has_conditionals][:3] + [
    p for p in SUITE if not p.has_conditionals
][:2]


@pytest.mark.parametrize("program", SAMPLES, ids=[p.name for p in SAMPLES])
def test_double_compile_is_byte_identical(program):
    first = compile_one(program.name, program.source, WARP)
    second = compile_one(program.name, program.source, WARP)
    assert first.ok and second.ok
    assert disassemble(first.compiled.code) == disassemble(
        second.compiled.code
    )
    assert first.compiled.report() == second.compiled.report()


def test_ir_level_double_compile_identical():
    for builder in (build_conditional, build_dot):
        a = compile_program(builder(), WARP)
        b = compile_program(builder(), WARP)
        assert disassemble(a.code) == disassemble(b.code)
        assert a.report() == b.report()


def test_uid_state_does_not_leak_between_compilations():
    """Compiling program A must not perturb a later compilation of B."""
    b_alone = compile_one("b", SAMPLES[1].source, WARP)
    compile_one("a", SAMPLES[0].source, WARP)
    b_after = compile_one("b", SAMPLES[1].source, WARP)
    assert disassemble(b_alone.compiled.code) == disassemble(
        b_after.compiled.code
    )


class TestCacheDeterminism:
    def test_cold_vs_warm_identical(self, tmp_path):
        program = SAMPLES[0]
        cache = ScheduleCache(tmp_path / "cache")
        cold = compile_one(program.name, program.source, WARP, cache=cache)
        warm = compile_one(program.name, program.source, WARP, cache=cache)
        assert cold.ok and warm.ok
        assert not cold.from_cache and warm.from_cache
        assert disassemble(cold.compiled.code) == disassemble(
            warm.compiled.code
        )
        assert cold.compiled.report() == warm.compiled.report()
        assert cache.hits == 1 and cache.misses == 1

    def test_disk_round_trip_across_cache_instances(self, tmp_path):
        """A second process (modelled by a fresh ScheduleCache over the
        same directory) must serve the identical compilation."""
        program = SAMPLES[2]
        cold = compile_one(
            program.name, program.source, WARP,
            cache=ScheduleCache(tmp_path / "cache"),
        )
        fresh = ScheduleCache(tmp_path / "cache")
        warm = compile_one(program.name, program.source, WARP, cache=fresh)
        assert warm.from_cache and fresh.hits == 1
        assert disassemble(cold.compiled.code) == disassemble(
            warm.compiled.code
        )

    def test_memory_only_cache(self):
        program = SAMPLES[3]
        cache = ScheduleCache(None)
        compile_one(program.name, program.source, WARP, cache=cache)
        warm = compile_one(program.name, program.source, WARP, cache=cache)
        assert warm.from_cache
        assert cache.stats()["hit_rate"] == 0.5


class TestCacheKeys:
    def test_key_is_stable(self):
        program, _ = parse_program(SAMPLES[0].source)
        policy = CompilerPolicy()
        assert cache_key(program, WARP, policy) == cache_key(
            program, WARP, policy
        )

    def test_key_varies_with_program_machine_policy(self):
        program_a, _ = parse_program(SAMPLES[0].source)
        program_b, _ = parse_program(SAMPLES[1].source)
        default = CompilerPolicy()
        baseline = cache_key(program_a, WARP, default)
        assert cache_key(program_b, WARP, default) != baseline
        assert cache_key(program_a, SIMPLE, default) != baseline
        assert (
            cache_key(program_a, WARP, CompilerPolicy(pipeline=False))
            != baseline
        )
        # Same machine family, different parameter: register count is part
        # of the machine fingerprint (it changes MVE decisions).
        assert (
            fingerprint_machine(make_warp(num_registers=32))
            != fingerprint_machine(WARP)
        )

    def test_fingerprints_are_hex_digests(self):
        program, _ = parse_program(SAMPLES[0].source)
        for digest in (
            fingerprint_program(program),
            fingerprint_machine(WARP),
            fingerprint_policy(CompilerPolicy()),
        ):
            assert isinstance(digest, str)
            int(digest, 16)  # raises if not hex

    def test_equal_policies_share_one_memoised_fingerprint(self):
        # Built apart, the pragma arrays listed in different orders: the
        # second call is answered from the memo, the very same string.
        first = fingerprint_policy(
            CompilerPolicy(independent_arrays=frozenset(["a", "b", "c"]))
        )
        second = fingerprint_policy(
            CompilerPolicy(independent_arrays=frozenset(["c", "b", "a"]))
        )
        assert first is second
        for changed in (
            CompilerPolicy(independent_arrays=frozenset(["a", "b"])),
            CompilerPolicy(
                independent_arrays=frozenset(["a", "b", "c"]),
                serialize_ifs=False,
            ),
        ):
            assert fingerprint_policy(changed) != first


def test_livermore_reports_stable_across_runs():
    """A heavier program with pragmas: identical report both times."""
    kernel = LIVERMORE_KERNELS[7]
    first = compile_one("lk7", kernel.source, WARP)
    second = compile_one("lk7", kernel.source, WARP)
    assert first.compiled.report() == second.compiled.report()
    assert disassemble(first.compiled.code) == disassemble(
        second.compiled.code
    )
