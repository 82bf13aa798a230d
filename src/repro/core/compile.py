"""Whole-program compilation: IR -> scheduled VLIW code.

Walks the structured program, list-schedules straight-line segments (with
conditionals hierarchically reduced), and software-pipelines every
innermost loop that passes the applicability gates the paper describes:

* the loop body must not exceed a length threshold (the Warp scheduler
  declined the 331-instruction Livermore kernel 22);
* the lower bound on the initiation interval must promise a real gain over
  the locally compacted loop (kernels 16 and 20 were left unpipelined
  because the bound was within 99% of the unpipelined length);
* registers must suffice for modulo variable expansion — otherwise the
  compiler "resorts to simple techniques that serialize the execution of
  loop iterations" (section 2.3).

Iterations that do not fit the pipelined pattern ``n = k + passes*unroll``
are peeled into an unpipelined copy that runs first, exactly the
two-version arrangement of section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from repro.core.emit import (
    BlockRegion,
    CodeObject,
    CondRegion,
    GuardedRegion,
    PeelCount,
    PipelinePasses,
    Region,
    RegisterAllocator,
    RegisterPressureError,
    Renamer,
    SequentialLoopRegion,
    TripSpec,
    emit_block,
    emit_pipelined_loop,
    fold_into_epilog,
    emit_straightline,
    emit_unpipelined_loop,
    region_size,
)
from repro.core.listsched import list_schedule_block
from repro.core.mve import MIN_UNROLL, MVE_POLICIES, ExpansionPlan, plan_expansion
from repro.core.pipeliner import (
    EXACT_MAX_CONFLICTS,
    SCHEDULER_BACKENDS,
    SEARCH_POLICIES,
    PipelinerPolicy,
    SchedulerBackend,
    create_scheduler,
)
from repro.core.reduction import (
    _reduce_stmt,
    build_reduced_loop_graph,
    fresh_uid_scope,
)
from repro.core.schedule import BlockSchedule, SchedulingFailure
from repro.deps.build import DependenceOptions, connect_block_edges
from repro.deps.graph import DepGraph
from repro.ir.operands import FLOAT, Imm, Operand, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.cse import eliminate_common_subexpressions
from repro.ir.stmts import ForLoop, IfStmt, Program, Stmt
from repro.ir.verify import verify_program
from repro.machine.description import MachineDescription
from repro.obs import trace as obs

#: The applicability gates of the module docstring: the longest locally
#: compacted body that is pipelined, and the fraction of the unpipelined
#: length an initiation interval must stay below.
MAX_BODY_LENGTH = 300
MIN_GAIN = 0.99


@dataclass(frozen=True)
class CompilerPolicy:
    """Compiler-wide policy knobs (see module docstring)."""

    pipeline: bool = True
    search: str = "linear"
    mve_policy: str = MIN_UNROLL
    serialize_ifs: bool = True
    independent_arrays: frozenset[str] = frozenset()
    cse: bool = True
    #: Which :data:`~repro.core.pipeliner.SCHEDULER_BACKENDS` member
    #: pipelines the loops: Lam's heuristic, or the exact SAT backend
    #: (which keeps the heuristic's schedule unless SAT finds a smaller
    #: interval).
    scheduler_backend: str = "heuristic"
    #: The exact backend's conflict budget per interval; ignored by the
    #: heuristic.
    exact_max_conflicts: int = EXACT_MAX_CONFLICTS

    def __post_init__(self) -> None:
        for name, allowed in (
            ("search", SEARCH_POLICIES),
            ("mve_policy", MVE_POLICIES),
            ("scheduler_backend", SCHEDULER_BACKENDS),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"unknown {name} {value!r}; expected one of {allowed}"
                )
        if self.exact_max_conflicts < 1:
            raise ValueError("exact_max_conflicts must be positive")


@dataclass
class LoopReport:
    """What happened to one innermost loop."""

    label: str
    pipelined: bool
    reason: str = ""
    ii: Optional[int] = None
    mii: Optional[int] = None
    resource_mii: Optional[int] = None
    recurrence_mii: Optional[int] = None
    critical_resource: str = ""
    unpipelined_length: int = 0
    unroll: int = 1
    stage_count: int = 1
    peeled: int = 0
    trip_count: Optional[int] = None
    kernel_size: int = 0
    total_size: int = 0
    attempts: list[int] = field(default_factory=list)
    has_conditionals: bool = False
    has_recurrence: bool = False
    #: True when the loop was emitted with the runtime two-version scheme.
    two_version: bool = False
    #: Which scheduler backend produced (or declined) the kernel.
    backend: str = "heuristic"
    #: The exact backend's terminal search status (``optimal``,
    #: ``infeasible``, ``unknown`` or ``too_large``); empty under the
    #: heuristic and for loops no backend scheduled.
    exact_search: str = ""

    @property
    def achieved_lower_bound(self) -> bool:
        return self.pipelined and self.ii == self.mii

    @property
    def efficiency(self) -> float:
        """Lower bound on scheduling efficiency (paper, Table 4-2)."""
        if self.pipelined:
            return self.mii / self.ii
        return (self.mii or self.unpipelined_length) / self.unpipelined_length


@dataclass
class CompiledProgram:
    program: Program
    machine: MachineDescription
    policy: CompilerPolicy
    code: CodeObject
    loops: list[LoopReport]

    @property
    def code_size(self) -> int:
        return self.code.code_size

    def report(self) -> str:
        lines = [
            f"program {self.program.name!r} on {self.machine.name}:"
            f" {self.code_size} instructions,"
            f" {self.code.register_count} registers"
        ]
        for loop in self.loops:
            if loop.pipelined:
                lines.append(
                    f"  loop {loop.label}: pipelined ii={loop.ii}"
                    f" (mii={loop.mii}, res={loop.resource_mii},"
                    f" rec={loop.recurrence_mii}) unroll={loop.unroll}"
                    f" stages={loop.stage_count} peeled={loop.peeled}"
                    f" size={loop.total_size}"
                )
            else:
                lines.append(
                    f"  loop {loop.label}: unpipelined"
                    f" (reason: {loop.reason})"
                    f" length={loop.unpipelined_length}"
                )
        return "\n".join(lines)


class _Compiler:
    def __init__(
        self,
        program: Program,
        machine: MachineDescription,
        policy: CompilerPolicy,
    ) -> None:
        with obs.phase("verify"):
            verify_program(program)
        if policy.cse:
            with obs.phase("cse"):
                program = eliminate_common_subexpressions(program)
        self.program = program
        self.machine = machine
        self.policy = policy
        self.alloc = RegisterAllocator(machine)
        self.scalar_renamer = Renamer(self.alloc, None)
        self.loops: list[LoopReport] = []
        self._loop_counter = 0

    # -- helpers -------------------------------------------------------------

    def _operand(self, operand: Operand) -> Operand:
        if isinstance(operand, Reg):
            return self.alloc.scalar(operand)
        return operand

    def _mov(self, dest: Reg, src: Operand) -> Operation:
        opcode = Opcode.FMOV if dest.kind == FLOAT else Opcode.MOV
        return Operation(opcode, dest, (src,))

    def _glue(self, ops: list[Operation]) -> list[Region]:
        """Emit compiler glue that already names physical registers."""
        if not ops:
            return []
        return [BlockRegion(emit_straightline(ops, self.machine), "glue")]

    def _reads_outside(self, loop: ForLoop) -> set[Reg]:
        """Registers read anywhere in the program except inside ``loop``."""

        def scan(stmts: list[Stmt]) -> set[Reg]:
            reads: set[Reg] = set()
            for stmt in stmts:
                if stmt is loop:
                    for bound in (stmt.start, stmt.stop):
                        if isinstance(bound, Reg):
                            reads.add(bound)
                    continue
                if isinstance(stmt, Operation):
                    reads.update(stmt.src_regs)
                elif isinstance(stmt, ForLoop):
                    for bound in (stmt.start, stmt.stop):
                        if isinstance(bound, Reg):
                            reads.add(bound)
                    reads.update(scan(stmt.body))
                elif isinstance(stmt, IfStmt):
                    if isinstance(stmt.cond, Reg):
                        reads.add(stmt.cond)
                    reads.update(scan(stmt.then_body))
                    reads.update(scan(stmt.else_body))
            return reads

        return scan(self.program.body)

    # -- program traversal ----------------------------------------------------

    def compile(self) -> CompiledProgram:
        regions = self._emit_stmts(self.program.body)
        code = CodeObject(self.program, self.machine, regions, self.alloc.count)
        return CompiledProgram(
            self.program, self.machine, self.policy, code, self.loops
        )

    def _emit_stmts(self, stmts: list[Stmt]) -> list[Region]:
        regions: list[Region] = []
        pending: list[Stmt] = []

        def flush() -> None:
            if pending:
                regions.append(self._emit_segment(list(pending)))
                pending.clear()

        for stmt in stmts:
            if isinstance(stmt, ForLoop):
                flush()
                regions.extend(self._emit_loop(stmt))
            elif isinstance(stmt, IfStmt) and (
                _contains_loop(stmt.then_body) or _contains_loop(stmt.else_body)
            ):
                # A conditional wrapping loops cannot be reduced to a node;
                # it becomes a control region with its own arm code.
                flush()
                regions.append(
                    CondRegion(
                        self._operand(stmt.cond),
                        self._emit_stmts(stmt.then_body),
                        self._emit_stmts(stmt.else_body),
                    )
                )
            else:
                pending.append(stmt)
        flush()
        return regions

    def _emit_segment(self, stmts: list[Stmt]) -> Region:
        """Scalar code between loops: hierarchical reduction plus list
        scheduling, the same machinery as inside loops."""
        with obs.phase("deps"):
            graph = DepGraph()
            for index, stmt in enumerate(stmts):
                graph.add_node(
                    _reduce_stmt(
                        stmt, self.machine, index, self.policy.serialize_ifs
                    )
                )
            connect_block_edges(graph)
        with obs.phase("listsched"):
            schedule = list_schedule_block(graph, self.machine)
        return BlockRegion(
            emit_block(schedule, self.scalar_renamer), "segment"
        )

    def _emit_loop(self, loop: ForLoop) -> list[Region]:
        if _contains_loop(loop.body):
            return self._emit_outer_loop(loop)
        return self._emit_inner_loop(loop)

    def _emit_outer_loop(self, loop: ForLoop) -> list[Region]:
        iv = self.alloc.scalar(loop.var)
        setup = self._glue([self._mov(iv, self._operand(loop.start))])
        body = self._emit_stmts(loop.body)
        body.extend(
            self._glue([Operation(Opcode.ADD, iv, (iv, Imm(loop.step)))])
        )
        passes = loop.trip_count
        if passes is None:
            passes = TripSpec(
                self._operand(loop.start), self._operand(loop.stop), loop.step
            )
        regions = setup + [
            SequentialLoopRegion(body, passes, label=f"outer({loop.var.name})")
        ]
        if loop.var in self._reads_outside(loop):
            regions.extend(
                self._glue([Operation(Opcode.ADD, iv, (iv, Imm(-loop.step)))])
            )
        return regions

    # -- innermost loops -------------------------------------------------------

    def _emit_inner_loop(self, loop: ForLoop) -> list[Region]:
        self._loop_counter += 1
        label = f"L{self._loop_counter}({loop.var.name})"
        options = DependenceOptions(
            independent_arrays=self.policy.independent_arrays
        )
        with obs.phase("deps", loop=label):
            lg = build_reduced_loop_graph(
                loop, self.machine, options,
                serialize_ifs=self.policy.serialize_ifs,
                expand=self.policy.pipeline,
            )
            # The unpipelined copy shares no registers with rotated copies,
            # so it is scheduled from a graph that keeps all anti/output
            # edges.
            lg_block = build_reduced_loop_graph(
                loop, self.machine, options,
                serialize_ifs=self.policy.serialize_ifs,
                expand=False,
            )
        with obs.phase("listsched", loop=label):
            block = list_schedule_block(lg_block.graph, self.machine)
        unpip_len = max(block.completion_length, 1)
        trip = loop.trip_count

        report = LoopReport(
            label=label,
            pipelined=False,
            unpipelined_length=unpip_len,
            trip_count=trip,
            has_conditionals=lg.has_conditionals,
            has_recurrence=_has_nontrivial_recurrence(lg),
        )

        regions = self._try_pipeline(loop, lg, block, trip, report, label)
        if regions is None:
            with obs.phase("emit", loop=label):
                regions = self._emit_fallback(loop, block, trip, report, label)
        report.total_size = sum(region_size(r) for r in regions)
        self.loops.append(report)
        obs.count("loops")
        if report.pipelined:
            obs.count("loops_pipelined")
            if report.ii == report.mii:
                obs.count("loops_at_mii")
        obs.record_loop(
            label=report.label,
            pipelined=report.pipelined,
            ii=report.ii,
            mii=report.mii,
            ii_gap=(report.ii - report.mii) if report.pipelined else None,
            critical_resource=report.critical_resource,
            attempts=list(report.attempts),
            unroll=report.unroll,
            stage_count=report.stage_count,
            unpipelined_length=report.unpipelined_length,
            reason=report.reason,
            backend=report.backend,
            exact_search=report.exact_search,
        )
        return regions

    def _try_pipeline(
        self,
        loop: ForLoop,
        lg,
        block: BlockSchedule,
        trip: Optional[int],
        report: LoopReport,
        label: str,
    ) -> Optional[list[Region]]:
        policy = self.policy
        if not policy.pipeline:
            report.reason = "pipelining disabled"
            return None
        if block.length > MAX_BODY_LENGTH:
            report.reason = (
                f"body length {block.length} beyond threshold"
                f" {MAX_BODY_LENGTH}"
            )
            return None

        # "The length of a locally compacted iteration can serve as an
        # upper bound" (section 2.2): beyond it the unpipelined loop is at
        # least as good, so the search never looks past it.
        cap = max(report.unpipelined_length, 2)
        scheduler = scheduler_for(self.machine, policy, max_ii=cap)
        report.backend = scheduler.name
        try:
            result = scheduler.schedule(lg.graph)
        except SchedulingFailure as failure:
            report.reason = f"no modulo schedule found ({failure})"
            report.attempts = failure.attempts
            return None
        schedule = result.schedule
        report.exact_search = result.exact_search
        report.attempts = schedule.attempts
        report.mii = schedule.mii.mii
        report.resource_mii = schedule.mii.resource
        report.recurrence_mii = schedule.mii.recurrence
        report.critical_resource = schedule.mii.critical_resource
        if schedule.ii >= MIN_GAIN * report.unpipelined_length:
            report.reason = (
                f"initiation interval {schedule.ii} within"
                f" {MIN_GAIN:.0%} of unpipelined length"
                f" {report.unpipelined_length}"
            )
            return None

        with obs.phase("mve", loop=label):
            plan = plan_expansion(
                schedule, lg.options.expanded_regs, policy.mve_policy
            )
        k = schedule.stage_count - 1
        u = plan.unroll
        if trip is not None and trip < k + u:
            report.reason = (
                f"{trip} iterations cannot fill a {schedule.stage_count}-stage"
                f" pipeline unrolled {u}x"
            )
            return None

        snapshot = dict(self.alloc._map)
        try:
            with obs.phase("emit", loop=label):
                regions = self._emit_pipelined_variants(
                    loop, plan, schedule, block, trip, report, label, k, u
                )
        except RegisterPressureError as pressure:
            self.alloc._map = snapshot
            report.reason = str(pressure)
            return None

        report.pipelined = True
        report.ii = schedule.ii
        report.unroll = u
        report.stage_count = schedule.stage_count
        report.kernel_size = u * schedule.ii
        return regions

    def _emit_pipelined_variants(
        self,
        loop: ForLoop,
        plan: ExpansionPlan,
        schedule,
        block: BlockSchedule,
        trip: Optional[int],
        report: LoopReport,
        label: str,
        k: int,
        u: int,
    ) -> list[Region]:
        if trip is not None:
            peel = (trip - k) % u
            passes = (trip - k - peel) // u
            regions = self._emit_pipelined(
                loop, plan, schedule, block, peel, passes, label
            )
            report.peeled = peel
        else:
            # Trip count known only at run time: the paper's two-version
            # scheme (section 2.4).  If n < k + u the unpipelined copy
            # runs all n iterations; otherwise the unpipelined copy runs
            # the (n - k) mod u leftover iterations and the pipelined
            # loop takes the rest.
            trip_spec = TripSpec(
                self._operand(loop.start), self._operand(loop.stop),
                loop.step,
            )
            main = self._emit_pipelined(
                loop, plan, schedule, block,
                PeelCount(trip_spec, k, u),
                PipelinePasses(trip_spec, k, u),
                label,
            )
            fallback = self._emit_unpipelined_regions(
                loop, block, trip_spec, label
            )
            regions = [
                GuardedRegion(trip_spec, k + u, main, fallback, label)
            ]
            report.two_version = True
            report.peeled = 0
        return regions

    def _emit_pipelined(
        self,
        loop: ForLoop,
        plan: ExpansionPlan,
        schedule,
        block: BlockSchedule,
        peel,
        passes,
        label: str,
    ) -> list[Region]:
        """Setup, peel copy, register seeds, the pipelined region, and
        live-out cleanup.  ``peel``/``passes`` are ints for compile-time
        trip counts, :class:`PeelCount`/:class:`PipelinePasses` otherwise.
        """
        iv = self.alloc.scalar(loop.var)
        regions: list[Region] = []
        regions.extend(self._glue([self._mov(iv, self._operand(loop.start))]))

        renamer = Renamer(self.alloc, plan)
        if not isinstance(peel, int) or peel:
            regions.append(
                emit_unpipelined_loop(
                    block, self.scalar_renamer, peel, label=f"{label}.peel"
                )
            )

        seeds = []
        carried = {
            reg for (_, reg), omega in plan.use_omega.items() if omega == 1
        }
        for reg in sorted(carried, key=lambda r: r.name):
            copies = plan.copies[reg]
            seeds.append(
                self._mov(
                    self.alloc.copy_reg(reg, copies - 1), self.alloc.scalar(reg)
                )
            )
        regions.extend(self._glue(seeds))

        region = emit_pipelined_loop(schedule, plan, renamer, passes,
                                     label=label)

        # Live-out cleanup: copy rotated values back to the scalar
        # registers.  Folded into the epilog's free slots rather than
        # appended as a drain block — the paper's section 3.3 overlap of
        # scalar code with the epilog.
        live_after = self._reads_outside(loop)
        k = schedule.stage_count - 1
        write_times = {
            info.reg: schedule.times[node.index] + info.write_latency
            for node in schedule.graph.nodes for info in node.defs
        }
        tail_ops: list[tuple[Operation, int]] = []
        for reg in sorted(plan.copies, key=lambda r: r.name):
            if reg not in live_after:
                continue
            # The loop retires k + passes*unroll iterations; every copy
            # count divides the unroll, so the last writer's copy index is
            # (k - 1) mod copies regardless of the runtime pass count.
            last_copy = (k - 1) % plan.copies[reg]
            # The final value commits sigma_def + latency into the last
            # iteration, i.e. that minus one interval into the epilog.
            earliest = write_times[reg] - schedule.ii
            tail_ops.append((
                self._mov(
                    self.alloc.scalar(reg), self.alloc.copy_reg(reg, last_copy)
                ),
                earliest,
            ))
        if loop.var in live_after:
            tail_ops.append(
                (Operation(Opcode.ADD, iv, (iv, Imm(-loop.step))), 0)
            )
        fold_into_epilog(region, self.machine, tail_ops)
        regions.append(region)
        return regions

    def _emit_unpipelined_regions(
        self,
        loop: ForLoop,
        block: BlockSchedule,
        passes,
        label: str,
    ) -> list[Region]:
        iv = self.alloc.scalar(loop.var)
        regions: list[Region] = []
        regions.extend(self._glue([self._mov(iv, self._operand(loop.start))]))
        regions.append(
            emit_unpipelined_loop(block, self.scalar_renamer, passes, label=label)
        )
        if loop.var in self._reads_outside(loop):
            regions.extend(
                self._glue([Operation(Opcode.ADD, iv, (iv, Imm(-loop.step)))])
            )
        return regions

    def _emit_fallback(
        self,
        loop: ForLoop,
        block: BlockSchedule,
        trip: Optional[int],
        report: LoopReport,
        label: str,
    ) -> list[Region]:
        passes: Union[int, TripSpec]
        if trip is not None:
            passes = trip
        else:
            passes = TripSpec(
                self._operand(loop.start), self._operand(loop.stop), loop.step
            )
        return self._emit_unpipelined_regions(loop, block, passes, label)


def scheduler_for(
    machine: MachineDescription,
    policy: CompilerPolicy,
    max_ii: Optional[int] = None,
) -> SchedulerBackend:
    """The modulo scheduler backend ``policy`` names, with its search
    order and exact-search budget, trying intervals up to ``max_ii``."""
    return create_scheduler(
        machine,
        PipelinerPolicy(search=policy.search, max_ii=max_ii),
        backend=policy.scheduler_backend,
        max_conflicts=policy.exact_max_conflicts,
    )


def _has_nontrivial_recurrence(lg) -> bool:
    """Whether the loop has a connected component in the paper's sense: a
    dependence cycle beyond the induction variable's own increment chain."""
    from repro.deps.scc import strongly_connected_components

    for component in strongly_connected_components(lg.graph):
        if len(component) > 1:
            return True
    return any(
        e.src is e.dst and e.src is not lg.increment for e in lg.graph.edges
    )


def _contains_loop(stmts: list[Stmt]) -> bool:
    for stmt in stmts:
        if isinstance(stmt, ForLoop):
            return True
        if isinstance(stmt, IfStmt):
            if _contains_loop(stmt.then_body) or _contains_loop(stmt.else_body):
                return True
    return False


def compile_program(
    program: Program,
    machine: MachineDescription,
    policy: CompilerPolicy = CompilerPolicy(),
) -> CompiledProgram:
    """Compile a structured IR program to VLIW code for ``machine``.

    Compilation is deterministic: the same (program, machine, policy)
    triple always produces byte-identical code, regardless of process
    history or of other compilations running concurrently (conditional
    uids are numbered per compilation, see
    :func:`repro.core.reduction.fresh_uid_scope`).
    """
    with fresh_uid_scope():
        return _Compiler(program, machine, policy).compile()
