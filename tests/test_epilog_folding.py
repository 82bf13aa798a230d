"""Section 3.3 overlap: live-out cleanup folded into the epilog."""

from repro.audit.generate import random_program
from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy, compile_program
from repro.core.emit import (
    BlockRegion,
    CondRegion,
    GuardedRegion,
    PipelinedLoopRegion,
    SequentialLoopRegion,
    SlotOp,
    WideInstruction,
    fold_into_epilog,
)
from repro.ir import FLOAT, Imm, Opcode, Operation, Reg
from repro.machine import WARP, OpClass, make_custom
from repro.machine.resources import ReservationTable, ResourceUse
from repro.simulator import run_and_check
from repro.workloads import generate_suite
from conftest import build_dot

#: Every fadd-class op holds the adder for two cycles (latency 3), so a
#: fold that checks only an op's first cycle double-books the adder.
TWO_CYCLE_ADDER = make_custom(
    "two-cycle-adder",
    {"alu": 1, "fadd": 1, "fmul": 1, "mem": 1, "seq": 1},
    {
        name: OpClass(name, 3, ReservationTable(
            [ResourceUse(0, "fadd"), ResourceUse(1, "fadd")]
        ))
        for name, cls in WARP.op_classes.items()
        if cls.reservation.resources() == {"fadd"}
    },
    num_registers=WARP.num_registers,
)


def _regions(regions):
    for region in regions:
        yield region
        if isinstance(region, SequentialLoopRegion):
            yield from _regions(region.body)
        elif isinstance(region, GuardedRegion):
            yield from _regions(region.main)
            yield from _regions(region.fallback)
        elif isinstance(region, CondRegion):
            yield from _regions(region.then_regions)
            yield from _regions(region.else_regions)


def _epilog_overuse(region, machine):
    """``(cycle, resource, units)`` for each epilog cycle holding more
    units than the machine has.  Every slot is counted with its full
    reservation, kernel slots whose reservation runs past the kernel's
    end included.  Predicated slots are skipped: mutually exclusive arms
    may share a unit."""
    used = {}
    end = len(region.kernel)
    placed = [
        (time - end, slot) for time, instr in enumerate(region.kernel)
        for slot in instr.slots
    ] + [
        (time, slot) for time, instr in enumerate(region.epilog)
        for slot in instr.slots
    ]
    for time, slot in placed:
        if slot.preds:
            continue
        for offset, resource, amount in machine.reservation(
            slot.op.opcode.value
        ):
            key = (time + offset, resource)
            used[key] = used.get(key, 0) + amount
    return [
        (time, resource, units) for (time, resource), units in used.items()
        if 0 <= time < len(region.epilog) and units > machine.units(resource)
    ]


class TestFoldIntoEpilog:
    def _empty_region(self, epilog_len=4):
        return PipelinedLoopRegion(
            prolog=[], kernel=[WideInstruction()],
            epilog=[WideInstruction() for _ in range(epilog_len)],
            passes=1, unroll=1, started_in_prolog=0, ii=1,
        )

    def test_places_at_earliest_cycle(self):
        region = self._empty_region()
        op = Operation(Opcode.MOV, Reg("R1"), (Reg("R0"),))
        fold_into_epilog(region, WARP, [(op, 2)])
        assert region.epilog[2].slots[0].op is op

    def test_extends_epilog_when_needed(self):
        region = self._empty_region(epilog_len=1)
        op = Operation(Opcode.FMOV, Reg("R1", FLOAT), (Reg("R0", FLOAT),))
        fold_into_epilog(region, WARP, [(op, 3)])
        # Placed at 3, fmov latency 7: epilog must reach cycle 10.
        assert len(region.epilog) == 10

    def test_respects_resource_conflicts(self):
        region = self._empty_region()
        first = Operation(Opcode.MOV, Reg("R1"), (Imm(1),))
        second = Operation(Opcode.MOV, Reg("R2"), (Imm(2),))
        fold_into_epilog(region, WARP, [(first, 0), (second, 0)])
        # One ALU: the second mov must slip to the next cycle.
        assert region.epilog[0].slots[0].op is first
        assert region.epilog[1].slots[0].op is second

    def test_dataflow_between_tail_ops(self):
        region = self._empty_region()
        produce = Operation(Opcode.MOV, Reg("R1"), (Imm(5),))
        consume = Operation(Opcode.ADD, Reg("R2"), (Reg("R1"), Imm(1)))
        fold_into_epilog(region, WARP, [(produce, 0), (consume, 0)])
        produce_time = next(
            t for t, instr in enumerate(region.epilog)
            if any(s.op is produce for s in instr.slots)
        )
        consume_time = next(
            t for t, instr in enumerate(region.epilog)
            if any(s.op is consume for s in instr.slots)
        )
        assert consume_time >= produce_time + WARP.latency("mov")

    def test_a_later_cycle_of_a_reservation_is_respected(self):
        # The first fmov still holds the adder in cycle 1, so the second,
        # ready at cycle 1, waits for cycle 2.
        region = self._empty_region()
        first = Operation(Opcode.FMOV, Reg("R1", FLOAT), (Reg("R0", FLOAT),))
        second = Operation(Opcode.FMOV, Reg("R3", FLOAT), (Reg("R2", FLOAT),))
        fold_into_epilog(region, TWO_CYCLE_ADDER, [(first, 0), (second, 1)])
        assert region.epilog[0].slots[0].op is first
        assert region.epilog[2].slots[0].op is second

    def test_kernel_spill_is_respected(self):
        # An fadd in the kernel's last cycle holds the adder in epilog
        # cycle 0.
        region = self._empty_region()
        region.kernel[-1].slots.append(SlotOp(
            Operation(Opcode.FADD, Reg("R5", FLOAT),
                      (Reg("R5", FLOAT), Reg("R4", FLOAT)))
        ))
        op = Operation(Opcode.FMOV, Reg("R1", FLOAT), (Reg("R0", FLOAT),))
        fold_into_epilog(region, TWO_CYCLE_ADDER, [(op, 0)])
        assert not region.epilog[0].slots
        assert region.epilog[1].slots[0].op is op

    def test_exclusive_arms_block_only_their_unit(self):
        # Both arms store in cycle 0: the memory port is taken there, the
        # adder is not.
        region = self._empty_region()
        for arm in ("then", "else"):
            region.epilog[0].slots.append(SlotOp(
                Operation(Opcode.STORE, None, (Imm(0), Reg("R0", FLOAT)),
                          array="a"),
                -1, ((1, arm),),
            ))
        fmov = Operation(Opcode.FMOV, Reg("R1", FLOAT), (Reg("R0", FLOAT),))
        store = Operation(Opcode.STORE, None, (Imm(1), Reg("R0", FLOAT)),
                          array="a")
        fold_into_epilog(region, WARP, [(fmov, 0), (store, 0)])
        assert region.epilog[0].slots[-1].op is fmov
        assert region.epilog[1].slots[0].op is store


class TestEndToEndFolding:
    def test_no_separate_cleanup_block(self):
        compiled = compile_program(build_dot(100), WARP)
        # Between the pipelined region and the final store segment there is
        # no fmov-carrying glue block: cleanup lives inside the epilog.
        regions = list(_regions(compiled.code.regions))
        pipelined = next(
            i for i, r in enumerate(compiled.code.regions)
            if isinstance(r, PipelinedLoopRegion)
        )
        trailing = compiled.code.regions[pipelined + 1:]
        for region in trailing:
            if isinstance(region, BlockRegion) and region.label == "glue":
                movs = [
                    s for instr in region.instructions for s in instr.slots
                    if s.op.opcode in (Opcode.MOV, Opcode.FMOV)
                ]
                assert not movs
        epilog = compiled.code.regions[pipelined].epilog
        folded = [
            s for instr in epilog for s in instr.slots
            if s.op.opcode is Opcode.FMOV
        ]
        assert folded  # the accumulator copy-out

    def test_folded_code_still_correct(self):
        compiled = compile_program(build_dot(100), WARP)
        run_and_check(compiled.code)

    def test_no_epilog_cycle_oversubscribed_with_a_two_cycle_adder(self):
        pipelined = 0
        for seed in range(300):
            program = random_program(seed)
            result = compile_one(
                program.name, program.source, TWO_CYCLE_ADDER,
                CompilerPolicy(),
            )
            assert result.ok, result.error
            for region in _regions(result.compiled.code.regions):
                if isinstance(region, PipelinedLoopRegion):
                    pipelined += 1
                    assert _epilog_overuse(region, TWO_CYCLE_ADDER) == [], (
                        program.name
                    )
        assert pipelined > 100

    def test_live_out_copy_shares_a_cycle_with_exclusive_stores(self):
        # suite1's epilog cycle 5 holds a store from each arm of its
        # conditional: the memory port is taken, the adder is free, so
        # the accumulator's live-out fmov lands there too.
        program = next(p for p in generate_suite(1988, 72)
                       if p.name == "suite1")
        result = compile_one(program.name, program.source, WARP,
                             CompilerPolicy())
        code = result.compiled.code
        assert code.code_size == 58
        region = next(r for r in _regions(code.regions)
                      if isinstance(r, PipelinedLoopRegion))
        cycle = sorted(
            (slot.op.opcode.value, slot.preds)
            for slot in region.epilog[5].slots
        )
        assert cycle == [
            ("fmov", ()),
            ("store", ((1, "else"),)),
            ("store", ((1, "then"),)),
        ]
        run_and_check(code)
