"""Small configurable machines for examples, tests, and the section-2 demo.

:data:`SIMPLE` reproduces the machine of the paper's introductory example: a
one-stage pipelined adder where ``Read / Add / Add / Write`` takes four
cycles sequentially but an iteration can be initiated every cycle.
"""

from __future__ import annotations

from typing import Mapping

from repro.machine.description import (
    FLOP_OPCODES,
    MachineDescription,
    OpClass,
    standard_op_classes,
)
from repro.machine.resources import Resource


def make_simple(
    *,
    fp_latency: int = 2,
    alu_latency: int = 1,
    load_latency: int = 1,
    num_registers: int = 64,
    clock_mhz: float = 5.0,
) -> MachineDescription:
    """A lightly pipelined machine: short latencies, one unit of each kind."""
    return MachineDescription(
        "simple",
        resources=[
            Resource("fadd", 1),
            Resource("fmul", 1),
            Resource("alu", 1),
            Resource("mem", 1),
            Resource("seq", 1),
        ],
        op_classes=standard_op_classes(
            alu_latency=alu_latency,
            fadd_latency=fp_latency,
            fmul_latency=fp_latency,
            fdiv_latency=fp_latency * 4,
            load_latency=load_latency,
        ),
        num_registers=num_registers,
        clock_mhz=clock_mhz,
        flop_opcodes=FLOP_OPCODES,
    )


def make_custom(
    name: str,
    resources: Mapping[str, int],
    op_overrides: Mapping[str, OpClass] | None = None,
    *,
    alu_latency: int = 1,
    fadd_latency: int = 2,
    fmul_latency: int = 2,
    fdiv_latency: int = 8,
    load_latency: int = 1,
    num_registers: int = 64,
    clock_mhz: float = 5.0,
) -> MachineDescription:
    """Fully custom machine: override resource multiplicities and op classes.

    ``resources`` must include the resources the op classes reserve: the
    standard ``fadd``, ``fmul``, ``alu``, ``mem`` and ``seq`` unless
    ``op_overrides`` moves every op off one, plus any a custom op class
    uses.  The loop-back branch holds whatever the ``cjump`` class reserves.
    """
    op_classes = standard_op_classes(
        alu_latency=alu_latency,
        fadd_latency=fadd_latency,
        fmul_latency=fmul_latency,
        fdiv_latency=fdiv_latency,
        load_latency=load_latency,
    )
    if op_overrides:
        op_classes.update(op_overrides)
    return MachineDescription(
        name,
        resources=[Resource(rname, count) for rname, count in resources.items()],
        op_classes=op_classes,
        num_registers=num_registers,
        clock_mhz=clock_mhz,
        flop_opcodes=FLOP_OPCODES,
    )


#: Default small machine.
SIMPLE = make_simple()
