"""Human-readable views of schedules and emitted code.

Renders what the paper draws: the per-iteration schedule, the modulo
resource reservation table (section 2.1), and the prolog / steady-state /
epilog instruction listing of the introductory example.  Useful for
debugging schedules and for teaching.
"""

from __future__ import annotations

from collections import defaultdict

from repro.core.emit import (
    BlockRegion,
    CodeObject,
    CondRegion,
    GuardedRegion,
    PipelinedLoopRegion,
    Region,
    SequentialLoopRegion,
    WideInstruction,
)
from repro.core.schedule import KernelSchedule


def format_kernel_schedule(schedule: KernelSchedule) -> str:
    """One line per node: issue time, modulo slot, and the operation."""
    lines = [
        f"kernel schedule: ii={schedule.ii} length={schedule.length}"
        f" stages={schedule.stage_count}"
        f" (mii={schedule.mii.mii}: resource {schedule.mii.resource}"
        f" / recurrence {schedule.mii.recurrence})"
    ]
    nodes = sorted(
        schedule.graph.nodes, key=lambda n: (schedule.times[n.index], n.index)
    )
    for node in nodes:
        time = schedule.times[node.index]
        lines.append(
            f"  t={time:3d}  (mod {time % schedule.ii})  {node.name}"
        )
    return "\n".join(lines)


def format_modulo_table(schedule: KernelSchedule) -> str:
    """The modulo resource reservation table: rows are modulo slots,
    columns are resources, entries are usage / capacity."""
    machine = schedule.machine
    resources = sorted(machine.resources)
    usage: dict[tuple[int, str], int] = defaultdict(int)
    for node in schedule.graph.nodes:
        time = schedule.times[node.index]
        for offset, resource, amount in node.reservation.cells:
            usage[((time + offset) % schedule.ii, resource)] += amount
    header = "slot | " + " ".join(f"{r:>5s}" for r in resources)
    lines = [header, "-" * len(header)]
    for row in range(schedule.ii):
        cells = " ".join(
            f"{usage[(row, r)]:>2d}/{machine.units(r):<2d}" for r in resources
        )
        lines.append(f"{row:4d} | {cells}")
    return "\n".join(lines)


def _format_instruction(instr: WideInstruction) -> str:
    if not instr.slots:
        return "(nop)"
    parts = []
    for slot in instr.slots:
        text = repr(slot.op)
        if slot.preds:
            guards = ",".join(f"{uid}:{arm}" for uid, arm in slot.preds)
            text = f"[{guards}] {text}"
        if slot.iteration:
            text = f"{text} <iter{slot.iteration:+d}>"
        parts.append(text)
    return " ; ".join(parts)


def format_instructions(instructions: list[WideInstruction],
                        indent: str = "    ") -> list[str]:
    return [
        f"{indent}{cycle:4d}: {_format_instruction(instr)}"
        for cycle, instr in enumerate(instructions)
    ]


def disassemble(code: CodeObject) -> str:
    """A full listing of the emitted region tree."""
    lines: list[str] = [
        f"code object: {code.code_size} instructions,"
        f" {code.register_count} registers, machine {code.machine.name}"
    ]

    def walk(regions: list[Region], depth: int) -> None:
        pad = "  " * depth
        for region in regions:
            if isinstance(region, BlockRegion):
                lines.append(f"{pad}block {region.label or ''}"
                             f" ({len(region.instructions)} instructions)")
                lines.extend(format_instructions(region.instructions, pad + "  "))
            elif isinstance(region, SequentialLoopRegion):
                lines.append(f"{pad}loop {region.label or ''}"
                             f" passes={region.passes!r}")
                walk(region.body, depth + 1)
            elif isinstance(region, PipelinedLoopRegion):
                lines.append(
                    f"{pad}pipelined loop {region.label or ''}"
                    f" ii={region.ii} unroll={region.unroll}"
                    f" k={region.started_in_prolog} passes={region.passes!r}"
                )
                lines.append(f"{pad}  prolog:")
                lines.extend(format_instructions(region.prolog, pad + "    "))
                lines.append(f"{pad}  kernel (steady state):")
                lines.extend(format_instructions(region.kernel, pad + "    "))
                lines.append(f"{pad}  epilog:")
                lines.extend(format_instructions(region.epilog, pad + "    "))
            elif isinstance(region, GuardedRegion):
                lines.append(
                    f"{pad}guarded (two-version) trip={region.trip!r}"
                    f" threshold={region.threshold}"
                )
                lines.append(f"{pad}  pipelined version:")
                walk(region.main, depth + 2)
                lines.append(f"{pad}  unpipelined version:")
                walk(region.fallback, depth + 2)
            elif isinstance(region, CondRegion):
                lines.append(f"{pad}cond on {region.cond}")
                lines.append(f"{pad}  then:")
                walk(region.then_regions, depth + 2)
                lines.append(f"{pad}  else:")
                walk(region.else_regions, depth + 2)
            else:
                lines.append(f"{pad}{region!r}")

    walk(code.regions, 0)
    return "\n".join(lines)
