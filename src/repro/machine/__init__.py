"""Machine models: VLIW resource descriptions and target parameters.

A :class:`MachineDescription` tells the scheduler, for every opcode, which
functional-unit resources an operation occupies (its reservation table) and
how many cycles later its result becomes available (its latency).  The
flagship description is :data:`WARP`, a model of one cell of the CMU/GE Warp
systolic array used throughout Lam's PLDI'88 evaluation.
"""

from repro.machine.resources import Resource, ReservationTable, ResourceUse
from repro.machine.description import MachineDescription, OpClass
from repro.machine.warp import WARP, make_warp
from repro.machine.simple import SIMPLE, make_simple, make_custom

#: The named machines the command line and the compile service accept.
MACHINES: dict[str, MachineDescription] = {"warp": WARP, "simple": SIMPLE}

__all__ = [
    "Resource",
    "ResourceUse",
    "ReservationTable",
    "MachineDescription",
    "OpClass",
    "WARP",
    "make_warp",
    "SIMPLE",
    "make_simple",
    "make_custom",
    "MACHINES",
]
