"""Object-code emission (Lam 1988, sections 2.3, 2.4, 3.1).

A compiled program is a tree of *regions* over *wide instructions*.  Each
wide instruction is one machine cycle; each of its slots is one operation
over physical registers.  A software-pipelined loop becomes a
:class:`PipelinedLoopRegion`: a prolog that initiates ``k`` iterations, a
steady-state kernel of ``unroll * ii`` instructions ending in the loop-back
branch, and an epilog that drains the ``k`` iterations still in flight.

Conditionals are emitted as predicated slots: the reduced IF node's
dispatch (``cbr``) records the branch outcome for its dynamic instance
(static construct x iteration number), and the slots of both arms carry
predicates naming the outcome they need.  The real Warp compiler emitted
two code sequences and let the sequencer pick one; the predicated encoding
is timing-identical because scheduling already charged the node with the
union of both arms (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

from repro.core.mrt import ResourceGrid
from repro.core.mve import ExpansionPlan
from repro.core.reduction import ReducedIf
from repro.core.schedule import BlockSchedule, KernelSchedule
from repro.deps.graph import DepNode
from repro.ir.operands import Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import Program
from repro.machine.description import MachineDescription


class RegisterPressureError(Exception):
    """The program needs more physical registers than the machine has."""


class RegisterAllocator:
    """Maps virtual registers (and expansion copies) to physical registers.

    Physical registers are themselves :class:`Reg` values named ``R<n>``,
    so the simulator and printers need no second operand type.
    """

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self._map: dict[tuple[Reg, Optional[int]], Reg] = {}

    def _fresh(self, kind: str) -> Reg:
        number = len(self._map)
        if number >= self.machine.num_registers:
            raise RegisterPressureError(
                f"out of registers: machine {self.machine.name!r} has"
                f" {self.machine.num_registers}"
            )
        return Reg(f"R{number}", kind)

    def scalar(self, reg: Reg) -> Reg:
        key = (reg, None)
        if key not in self._map:
            self._map[key] = self._fresh(reg.kind)
        return self._map[key]

    def copy_reg(self, reg: Reg, copy: int) -> Reg:
        key = (reg, copy)
        if key not in self._map:
            self._map[key] = self._fresh(reg.kind)
        return self._map[key]

    @property
    def count(self) -> int:
        return len(self._map)


# -- code structures ---------------------------------------------------------


@dataclass(frozen=True)
class SlotOp:
    """One operation slot inside a wide instruction.

    iteration
        Which loop iteration the slot belongs to, relative to its region's
        base (see each region type for the base rule).  Zero outside loops.
    preds
        Conditional-outcome guards: ``(uid, "then"|"else")`` pairs that must
        all match recorded outcomes for the slot to take effect.
    cbr_uid
        For dispatch slots: the static conditional this slot resolves.
    """

    op: Operation
    iteration: int = 0
    preds: tuple[tuple[int, str], ...] = ()
    cbr_uid: Optional[int] = None


@dataclass
class WideInstruction:
    slots: list[SlotOp] = field(default_factory=list)

    def __repr__(self) -> str:
        body = "; ".join(repr(slot.op) for slot in self.slots) or "nop"
        return f"[{body}]"


@dataclass(frozen=True)
class TripSpec:
    """Trip count ``max(0, (stop - start) // step + 1)`` evaluated at region
    entry from physical-register (or immediate) bounds."""

    start: Operand
    stop: Operand
    step: int = 1

    def evaluate(self, read: Callable[[Operand], float]) -> int:
        start = int(read(self.start))
        stop = int(read(self.stop))
        if self.step > 0:
            return max(0, (stop - start) // self.step + 1)
        return max(0, (start - stop) // (-self.step) + 1)


@dataclass(frozen=True)
class PeelCount:
    """Iterations to run on the unpipelined copy before a pipelined loop
    with a runtime trip count: ``(n - k) mod u`` (paper, section 2.4)."""

    trip: TripSpec
    started_in_prolog: int
    unroll: int

    def evaluate(self, read: Callable[[Operand], float]) -> int:
        n = self.trip.evaluate(read)
        return (n - self.started_in_prolog) % self.unroll


@dataclass(frozen=True)
class PipelinePasses:
    """Kernel passes for a runtime trip count: ``(n - k) div u`` after the
    peel has removed the remainder."""

    trip: TripSpec
    started_in_prolog: int
    unroll: int

    def evaluate(self, read: Callable[[Operand], float]) -> int:
        n = self.trip.evaluate(read)
        return (n - self.started_in_prolog) // self.unroll


#: Anything a region can carry as a pass count.
Passes = Union[int, TripSpec, PeelCount, PipelinePasses]


@dataclass
class BlockRegion:
    """Straight-line wide instructions."""

    instructions: list[WideInstruction]
    label: str = ""


@dataclass
class SequentialLoopRegion:
    """Execute ``body`` regions ``passes`` times, back to back."""

    body: list["Region"]
    passes: Passes
    label: str = ""


@dataclass
class PipelinedLoopRegion:
    """A software-pipelined loop.

    Iteration numbering (local to one entry of the region):
      * prolog slots carry absolute iteration numbers ``0 .. k-1``;
      * kernel pass ``p`` slot iteration = ``p * unroll + slot.iteration``;
      * epilog slot iteration = ``n + slot.iteration`` (negative offsets),
        with ``n = started_in_prolog + passes * unroll``.
    """

    prolog: list[WideInstruction]
    kernel: list[WideInstruction]
    epilog: list[WideInstruction]
    passes: Passes
    unroll: int
    started_in_prolog: int
    ii: int
    label: str = ""

    @property
    def code_size(self) -> int:
        return len(self.prolog) + len(self.kernel) + len(self.epilog)


@dataclass
class GuardedRegion:
    """Runtime dispatch for loops whose trip count is unknown at compile
    time (the paper's two-version scheme, section 2.4): if the evaluated
    trip count is below ``threshold`` run ``fallback``, otherwise run
    ``main``."""

    trip: TripSpec
    threshold: int
    main: list["Region"]
    fallback: list["Region"]
    label: str = ""


@dataclass
class CondRegion:
    """A conditional whose arms contain loops (so it cannot be
    hierarchically reduced to a node): evaluate the condition register at
    entry and execute one arm."""

    cond: Operand
    then_regions: list["Region"]
    else_regions: list["Region"]
    label: str = ""


Region = Union[
    BlockRegion, SequentialLoopRegion, PipelinedLoopRegion, GuardedRegion,
    CondRegion,
]


def region_size(region: Region) -> int:
    """Static code size (number of wide instructions) of a region tree."""
    if isinstance(region, BlockRegion):
        return len(region.instructions)
    if isinstance(region, SequentialLoopRegion):
        return sum(region_size(r) for r in region.body)
    if isinstance(region, PipelinedLoopRegion):
        return region.code_size
    if isinstance(region, GuardedRegion):
        return (
            sum(region_size(r) for r in region.main)
            + sum(region_size(r) for r in region.fallback)
        )
    if isinstance(region, CondRegion):
        return 1 + (
            sum(region_size(r) for r in region.then_regions)
            + sum(region_size(r) for r in region.else_regions)
        )
    raise TypeError(f"unknown region {region!r}")


@dataclass
class CodeObject:
    """A fully emitted program: region tree plus bookkeeping."""

    program: Program
    machine: MachineDescription
    regions: list[Region]
    register_count: int = 0

    @property
    def code_size(self) -> int:
        return sum(region_size(region) for region in self.regions)


# -- atoms: the emission view of a dependence node ----------------------------


# Plain and slotted, not frozen: one per operation per emitted loop, and none outlives emission,
# and a frozen record costs several times as much to build.
@dataclass(slots=True)
class Atom:
    """One concrete operation within a (possibly reduced) node."""

    op: Operation
    delta: int
    preds: tuple[tuple[int, str], ...]
    cbr_uid: Optional[int]
    top_index: int


def flatten_node(node: DepNode) -> list[Atom]:
    """All concrete operations under a node, with offsets and predicates."""
    return _flatten(node.payload, 0, (), node.index)


def _flatten(
    payload: object,
    delta: int,
    preds: tuple[tuple[int, str], ...],
    top_index: int,
) -> list[Atom]:
    if isinstance(payload, Operation):
        return [Atom(payload, delta, preds, None, top_index)]
    if isinstance(payload, ReducedIf):
        atoms = [
            Atom(
                Operation(Opcode.CBR, srcs=(payload.cond,)),
                delta, preds, payload.uid, top_index,
            )
        ]
        for arm_name, arm in (
            ("then", payload.then_nodes), ("else", payload.else_nodes)
        ):
            arm_preds = preds + ((payload.uid, arm_name),)
            for sub_node, offset in arm:
                atoms.extend(
                    _flatten(sub_node.payload, delta + offset, arm_preds, top_index)
                )
        return atoms
    raise TypeError(f"cannot emit node payload {payload!r}")


# -- renaming -----------------------------------------------------------------


class Renamer:
    """Rewrites an atom's virtual operands into physical registers for a
    specific iteration, applying the modulo-variable-expansion copy rule."""

    def __init__(
        self,
        alloc: RegisterAllocator,
        plan: Optional[ExpansionPlan] = None,
    ) -> None:
        self.alloc = alloc
        self.plan = plan

    def rename(self, atom: Atom, iteration: int) -> Operation:
        """Iteration ``iteration`` of ``atom``: an expanded register is read
        from copy ``(iteration - omega) mod copies`` and written to copy
        ``iteration mod copies``; every other register has one location.
        Sources are allocated before the destination, in operand order."""
        op = atom.op
        plan = self.plan
        copies = plan.copies if plan is not None else {}
        alloc = self.alloc
        # A list, not a generator, which would resume once per operand.
        srcs = tuple([
            src if not isinstance(src, Reg)
            else alloc.copy_reg(
                src, plan.copy_for_use(atom.top_index, src, iteration)
            ) if src in copies
            else alloc.scalar(src)
            for src in op.srcs
        ])
        dest = op.dest
        if dest is not None:
            dest = (
                alloc.copy_reg(dest, iteration % copies[dest])
                if dest in copies else alloc.scalar(dest)
            )
        return op.with_operands(dest, srcs)


# -- instruction assembly -----------------------------------------------------


def _touches(op: Operation, regs: dict[Reg, int]) -> bool:
    """Whether ``op`` reads or writes any register in ``regs``."""
    if op.dest in regs:
        return True
    return any(isinstance(src, Reg) and src in regs for src in op.srcs)


def emit_block(
    schedule: BlockSchedule,
    renamer: Renamer,
    *,
    loop_back: bool = False,
    label: str = "",
) -> list[WideInstruction]:
    """Emit a block schedule, padded so every result commits before the
    block ends (regions never overlap in time, which is also why the
    loop-back branch may sit in the final instruction)."""
    length = max(schedule.completion_length, 1)
    instructions = [WideInstruction() for _ in range(length)]
    for node in sorted(schedule.graph.nodes, key=lambda n: n.index):
        time = schedule.times[node.index]
        for atom in flatten_node(node):
            instructions[time + atom.delta].slots.append(
                SlotOp(renamer.rename(atom, 0), 0, atom.preds, atom.cbr_uid)
            )
    if loop_back:
        instructions[-1].slots.append(
            SlotOp(Operation(Opcode.CJUMP, target=label or "loop"))
        )
    return instructions


def emit_straightline(
    ops: list[Operation],
    machine: MachineDescription,
) -> list[WideInstruction]:
    """Naive one-op-per-cycle emission for compiler glue (register seeds,
    live-out copies) that already names physical registers, padded for the
    final latency."""
    if not ops:
        return []
    last_commit = max(
        time + machine.latency(op.opcode.value) for time, op in enumerate(ops)
    )
    instructions = [WideInstruction([SlotOp(op)]) for op in ops]
    instructions.extend(
        WideInstruction() for _ in range(len(ops), last_commit)
    )
    instructions[-1].slots.append(SlotOp(Operation(Opcode.NOP)))
    return instructions


def fold_into_epilog(
    region: PipelinedLoopRegion,
    machine: MachineDescription,
    tail_ops: list[tuple[Operation, int]],
) -> None:
    """Overlap scalar tail code with the epilog (Lam 1988, section 3.3:
    "The prolog and epilog of a loop can be overlapped with scalar
    operations outside the loop").

    ``tail_ops`` are physical-register operations with the earliest
    epilog-relative cycle at which their sources have committed.  Each is
    list-scheduled into a :class:`~repro.core.mrt.ResourceGrid` at the
    first cycle from there (and from the commit times of any earlier tail
    op it reads) where its whole reservation fits, the epilog growing as
    needed to hold them and drain their results.  The grid starts with
    every epilog slot's full reservation and with what the kernel's last
    ``reach - 1`` instructions still hold past its end, both unchecked:
    both arms of a conditional are recorded, so a unit they share is full.
    """
    if not tail_ops:
        return
    epilog = region.epilog
    kernel = region.kernel
    op_classes = machine.op_classes
    grid = ResourceGrid(machine)
    occupy = grid.occupy
    for time, instr in enumerate(epilog):
        for slot in instr.slots:
            occupy(op_classes[slot.op.opcode.value].reservation, time)
    end = len(kernel)
    for time in range(max(0, end - machine.reach + 1), end):
        for slot in kernel[time].slots:
            occupy(op_classes[slot.op.opcode.value].reservation, time - end)

    committed: dict[Reg, int] = {}
    drain = 0
    for op, earliest in tail_ops:
        for src in op.src_regs:
            if src in committed:
                earliest = max(earliest, committed[src])
        opclass = op_classes[op.opcode.value]
        time = grid.place_earliest(opclass.reservation, max(0, earliest))
        while time >= len(epilog):
            epilog.append(WideInstruction())
        epilog[time].slots.append(SlotOp(op))
        if op.dest is not None:
            committed[op.dest] = time + opclass.latency
        drain = max(drain, time + opclass.latency)
    while len(epilog) < drain:
        epilog.append(WideInstruction())


def emit_pipelined_loop(
    schedule: KernelSchedule,
    plan: ExpansionPlan,
    renamer: Renamer,
    passes: Passes,
    *,
    label: str = "",
) -> PipelinedLoopRegion:
    """Emit the prolog / unrolled kernel / epilog of a modulo schedule.

    For ``n`` iterations in total the caller must arrange
    ``n = k + passes * unroll`` with ``k = stage_count - 1`` (peeling excess
    iterations into an unpipelined copy first, as the paper prescribes).

    Placement rule: operation instance (node, iteration ``i``, internal
    offset ``delta``) issues at flat time ``i*ii + sigma(node) + delta``.
    The prolog covers flat times ``[0, k*ii)``, each kernel pass covers the
    next ``unroll*ii``, and the epilog covers the final ``length - ii``.
    """
    graph, s = schedule.graph, schedule.ii
    u = plan.unroll
    k = schedule.stage_count - 1

    # Every slot lands inside these lengths (an atom issues before its
    # node's completion), so slots are appended straight to their
    # instruction.  The epilog both finishes the iterations still in
    # flight and pads until the final results commit, so following code
    # may read them safely.
    prolog = [WideInstruction() for _ in range(k * s)]
    kernel = [WideInstruction() for _ in range(u * s)]
    epilog = [
        WideInstruction()
        for _ in range(max(0, schedule.completion_length - s))
    ]

    for node in sorted(graph.nodes, key=lambda n: n.index):
        sigma = schedule.times[node.index]
        for atom in flatten_node(node):
            e = sigma + atom.delta
            # Section 2.3: every expanded register's copy count divides u,
            # so an atom's renaming depends only on its iteration modulo u,
            # and not at all when it touches no expanded register.  The
            # placements below visit iterations 0, 1, ... in order up to
            # a full kernel, so renaming each residue once, in order, hands
            # the allocator every register copy in the order one renaming
            # per placement would.
            period = u if _touches(atom.op, plan.copies) else 1
            ops = [renamer.rename(atom, r) for r in range(period)]
            preds, cbr_uid = atom.preds, atom.cbr_uid
            # Prolog: iterations 0..k-1, flat times below k*s.
            for i in range(k):
                t = i * s + e
                if t < k * s:
                    prolog[t].slots.append(
                        SlotOp(ops[i % period], i, preds, cbr_uid)
                    )
            # Kernel: positions congruent to e modulo s.
            for tau in range(e % s, u * s, s):
                c = k + (tau - e) // s
                kernel[tau].slots.append(
                    SlotOp(ops[c % period], c, preds, cbr_uid)
                )
            # Epilog: the last k iterations' tails.  The slot names
            # iteration n - j, which is congruent to k - j modulo every
            # copy count, so the renaming is independent of the runtime
            # trip count.
            for j in range(1, k + 1):
                t = e - j * s
                if t >= 0:
                    epilog[t].slots.append(
                        SlotOp(ops[(k - j) % period], -j, preds, cbr_uid)
                    )

    kernel[-1].slots.append(
        SlotOp(Operation(Opcode.CJUMP, target=label or "kernel"))
    )
    return PipelinedLoopRegion(
        prolog=prolog,
        kernel=kernel,
        epilog=epilog,
        passes=passes,
        unroll=u,
        started_in_prolog=k,
        ii=s,
        label=label,
    )


def emit_unpipelined_loop(
    block: BlockSchedule,
    renamer: Renamer,
    passes: Passes,
    *,
    label: str = "",
) -> SequentialLoopRegion:
    """Emit a loop that runs its locally compacted body to completion every
    iteration (hardware pipelines drain at iteration boundaries)."""
    instructions = emit_block(renamer=renamer, schedule=block,
                              loop_back=True, label=label)
    return SequentialLoopRegion(
        [BlockRegion(instructions, label=f"{label}.body")], passes, label=label
    )

