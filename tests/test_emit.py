"""Code emission: regions, prolog/kernel/epilog structure, register
allocation, code-size properties (paper, section 2.4)."""

import copy

import pytest

from repro.core.compile import CompilerPolicy, compile_program
from repro.core.emit import (
    BlockRegion,
    PipelinedLoopRegion,
    RegisterAllocator,
    RegisterPressureError,
    Renamer,
    SequentialLoopRegion,
    TripSpec,
    region_size,
)
from repro.core.mve import plan_expansion
from repro.core.pipeliner import ModuloScheduler
from repro.core.reduction import build_reduced_loop_graph
from repro.ir import FLOAT, Imm, Opcode, ProgramBuilder, Reg
from repro.machine import WARP
from repro.workloads import LIVERMORE_KERNELS
from conftest import build_conditional, build_dot, build_vadd


def _pipelined_region(compiled):
    def find(regions):
        for region in regions:
            if isinstance(region, PipelinedLoopRegion):
                return region
            if isinstance(region, SequentialLoopRegion):
                inner = find(region.body)
                if inner:
                    return inner
        return None

    return find(compiled.code.regions)


class TestRegisterAllocator:
    def test_scalar_mapping_stable(self):
        alloc = RegisterAllocator(WARP)
        reg = Reg("x", FLOAT)
        assert alloc.scalar(reg) == alloc.scalar(reg)

    def test_copies_get_distinct_registers(self):
        alloc = RegisterAllocator(WARP)
        reg = Reg("x", FLOAT)
        phys = {alloc.copy_reg(reg, c) for c in range(4)}
        assert len(phys) == 4

    def test_kind_preserved(self):
        alloc = RegisterAllocator(WARP)
        assert alloc.scalar(Reg("x", FLOAT)).kind == FLOAT
        assert alloc.scalar(Reg("i")).kind == "int"

    def test_exhaustion_raises(self):
        from repro.machine import make_warp

        tiny = make_warp(num_registers=2)
        alloc = RegisterAllocator(tiny)
        alloc.scalar(Reg("a"))
        alloc.scalar(Reg("b"))
        with pytest.raises(RegisterPressureError):
            alloc.scalar(Reg("c"))


class TestTripSpec:
    def test_static_bounds(self):
        spec = TripSpec(Imm(0), Imm(9))
        assert spec.evaluate(lambda op: op.value) == 10

    def test_register_bound(self):
        spec = TripSpec(Imm(0), Reg("n"))
        assert spec.evaluate(lambda op: 4 if isinstance(op, Reg) else op.value) == 5

    def test_negative_step(self):
        spec = TripSpec(Imm(9), Imm(0), step=-1)
        assert spec.evaluate(lambda op: op.value) == 10

    def test_empty_range_clamps_to_zero(self):
        spec = TripSpec(Imm(5), Imm(0))
        assert spec.evaluate(lambda op: op.value) == 0


class TestPipelinedRegionStructure:
    def test_prolog_kernel_epilog_sizes(self):
        compiled = compile_program(build_vadd(100), WARP)
        region = _pipelined_region(compiled)
        assert region is not None
        s = region.ii
        k = region.started_in_prolog
        assert len(region.prolog) == k * s
        assert len(region.kernel) == region.unroll * s
        assert len(region.epilog) >= 0

    def test_kernel_ends_with_loop_back_branch(self):
        compiled = compile_program(build_vadd(100), WARP)
        region = _pipelined_region(compiled)
        last = region.kernel[-1]
        assert any(slot.op.opcode is Opcode.CJUMP for slot in last.slots)

    def test_iteration_accounting(self):
        compiled = compile_program(build_vadd(100), WARP)
        region = _pipelined_region(compiled)
        report = compiled.loops[0]
        total = region.started_in_prolog + region.passes * region.unroll
        assert total + report.peeled == 100

    def test_kernel_slots_per_cycle_never_exceed_units(self):
        compiled = compile_program(build_vadd(100), WARP)
        region = _pipelined_region(compiled)
        for instr in region.kernel:
            usage = {}
            for slot in instr.slots:
                opcode = slot.op.opcode.value
                if opcode == "nop":
                    continue
                table = WARP.reservation(opcode)
                for offset, resource, amount in table:
                    if offset == 0:
                        usage[resource] = usage.get(resource, 0) + amount
            for resource, amount in usage.items():
                assert amount <= WARP.units(resource), (instr, resource)

    def test_kernel_contains_each_op_unroll_times(self):
        compiled = compile_program(build_vadd(100), WARP)
        region = _pipelined_region(compiled)
        report = compiled.loops[0]
        stores = sum(
            1 for instr in region.kernel for slot in instr.slots
            if slot.op.opcode is Opcode.STORE
        )
        assert stores == report.unroll


class TestCodeSizeClaims:
    def test_pipelined_loop_within_constant_factor_of_iteration(self):
        """Section 2.4: known trip count => pipelined code within ~3x the
        code for one iteration (we allow the unrolled kernel factor)."""
        compiled = compile_program(build_vadd(100), WARP)
        report = compiled.loops[0]
        one_iteration = report.unpipelined_length
        region = _pipelined_region(compiled)
        non_kernel = len(region.prolog) + len(region.epilog)
        assert non_kernel <= 3 * one_iteration

    def test_steady_state_shorter_than_unpipelined_loop(self):
        """The paper's key code-size point: the steady state is much
        shorter than the unpipelined loop body."""
        compiled = compile_program(build_vadd(100), WARP)
        report = compiled.loops[0]
        assert report.ii < report.unpipelined_length

    def test_region_size_matches_report(self):
        compiled = compile_program(build_vadd(100), WARP)
        assert compiled.code_size == sum(
            region_size(r) for r in compiled.code.regions
        )


class TestGlueMinimality:
    def test_no_cleanup_for_dead_temporaries(self):
        """Only live-out registers get copy-out moves after the loop."""
        compiled = compile_program(build_vadd(100), WARP)
        # vadd's temporaries are all dead after the loop: the final glue
        # block (if any) must be empty of fmov/mov slot ops.
        tail = compiled.code.regions[-1]
        if isinstance(tail, BlockRegion) and tail.label == "glue":
            movs = [
                slot for instr in tail.instructions for slot in instr.slots
                if slot.op.opcode in (Opcode.MOV, Opcode.FMOV)
            ]
            assert not movs

    def test_accumulator_copied_out(self):
        compiled = compile_program(build_dot(100), WARP)
        glue_movs = []
        for region in compiled.code.regions:
            if isinstance(region, BlockRegion) and region.label == "glue":
                glue_movs.extend(
                    slot for instr in region.instructions
                    for slot in instr.slots
                    if slot.op.opcode is Opcode.FMOV
                )
        assert glue_movs  # the dot-product sum is read after the loop


class TestRenamePerResidue:
    """``emit_pipelined_loop`` renames an atom once per iteration residue
    modulo the unroll (once if it touches no expanded register), and its
    code and register numbering equal one renaming per placement."""

    def _emit_loops(self, monkeypatch, sources):
        import repro.core.compile as compile_mod
        from repro.frontend import parse_program
        from reference import reference_emit_pipelined_loop

        real = compile_mod.emit_pipelined_loop
        loops = []

        def checked(schedule, plan, renamer, passes, *, label=""):
            # The reference runs first on a copy of the allocator, so both
            # see the same registers already taken.
            ref_alloc = copy.copy(renamer.alloc)
            ref_alloc._map = dict(renamer.alloc._map)
            expected = reference_emit_pipelined_loop(
                schedule, plan, Renamer(ref_alloc, plan), passes, label=label
            )
            renamed = []
            rename = renamer.rename

            def counting(atom, iteration):
                renamed.append(atom)
                return rename(atom, iteration)

            monkeypatch.setattr(renamer, "rename", counting)
            region = real(schedule, plan, renamer, passes, label=label)
            assert region == expected, label
            assert list(renamer.alloc._map.items()) == list(
                ref_alloc._map.items()
            ), label
            loops.append((plan, region, renamed))
            return region

        monkeypatch.setattr(compile_mod, "emit_pipelined_loop", checked)
        for source in sources:
            program, _ = parse_program(source)
            compile_program(program, WARP)
        return loops

    #: A loop whose invariant store touches no expanded register.
    INVARIANT_STORE = """program t;
var a: array[64] of float; b: array[64] of float; x: float;
begin
  x := 2.0;
  for i := 0 to 49 do
  begin
    a[i] := b[i] * x;
    b[60] := x
  end;
end.
"""

    def test_renames_per_residue_and_matches_reference(self, monkeypatch):
        loops = self._emit_loops(
            monkeypatch,
            [kernel.source for kernel in LIVERMORE_KERNELS.values()]
            + [self.INVARIANT_STORE],
        )
        assert loops
        rolled = untouched = 0
        for plan, region, renamed in loops:
            calls: dict[int, int] = {}
            for atom in renamed:
                calls[id(atom)] = calls.get(id(atom), 0) + 1
            atoms = {id(atom): atom for atom in renamed}
            for key, count in calls.items():
                op = atoms[key].op
                touched = [op.dest, *op.srcs]
                if any(isinstance(r, Reg) and r in plan.copies
                       for r in touched):
                    assert count <= plan.unroll
                else:
                    assert count == 1
                    untouched += plan.unroll > 1
            placements = sum(
                len(instr.slots)
                for part in (region.prolog, region.kernel, region.epilog)
                for instr in part
            ) - 1  # the loop-back branch is not a placement
            if plan.unroll > 1 and region.started_in_prolog >= 1:
                rolled += 1
                assert len(renamed) < placements
        # The corpus exercises u > 1 with a prolog, and an atom renamed
        # once although the kernel holds it u times.
        assert rolled and untouched
