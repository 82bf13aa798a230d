"""The paper's primary contribution: software pipelining for VLIW targets.

Submodules:

``mrt``
    The modulo resource reservation table (section 2.1).
``mii``
    Resource- and recurrence-constrained lower bounds on the initiation
    interval (section 2.2).
``listsched``
    Classic basic-block list scheduling (Fisher 1979), used for branch
    bodies, unpipelined loops, and the locally-compacted baseline.
``acyclic`` / ``cyclic``
    Modulo scheduling of acyclic graphs and of strongly connected
    components (sections 2.2.1 and 2.2.2).
``pipeliner``
    The iterative driver: linear search on the initiation interval.
``mve``
    Modulo variable expansion (section 2.3).
``reduction``
    Hierarchical reduction of conditionals and inner loops (section 3).
``emit``
    Object-code emission: prolog / unrolled kernel / epilog, and the
    two-version scheme for unknown trip counts (section 2.4).
"""

from repro.core.mrt import ModuloReservationTable
from repro.core.mii import MiiReport, resource_mii
from repro.core.schedule import BlockSchedule, KernelSchedule, SchedulingFailure
from repro.core.listsched import list_schedule_block
from repro.core.pipeliner import ModuloScheduler, PipelinerPolicy, PipelineResult
from repro.core.mve import ExpansionPlan, plan_expansion
from repro.core.reduction import LoopGraph
from repro.core.emit import (
    CodeObject,
    emit_pipelined_loop,
    emit_unpipelined_loop,
)
from repro.core.compile import CompiledProgram, compile_program
from repro.core.display import (
    disassemble,
    format_kernel_schedule,
    format_modulo_table,
)

__all__ = [
    "ModuloReservationTable",
    "MiiReport",
    "resource_mii",
    "BlockSchedule",
    "KernelSchedule",
    "SchedulingFailure",
    "list_schedule_block",
    "ModuloScheduler",
    "PipelinerPolicy",
    "PipelineResult",
    "ExpansionPlan",
    "plan_expansion",
    "LoopGraph",
    "CodeObject",
    "emit_pipelined_loop",
    "emit_unpipelined_loop",
    "CompiledProgram",
    "compile_program",
    "disassemble",
    "format_kernel_schedule",
    "format_modulo_table",
]
