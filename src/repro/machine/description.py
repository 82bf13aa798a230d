"""Machine descriptions: opcode classes, latencies, and resource limits."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Mapping

from repro.machine.resources import ReservationTable, Resource


@dataclass(frozen=True)
class OpClass:
    """Scheduling-relevant behaviour of one opcode on a machine.

    latency
        Cycles from issue until the result may be consumed.  A dependent
        operation issued ``latency`` cycles later reads the new value.
    reservation
        Resources held, relative to issue.
    """

    name: str
    latency: int
    reservation: ReservationTable

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"op class {self.name!r}: negative latency")


class MachineDescription:
    """A VLIW target: named resources plus an opcode -> :class:`OpClass` map.

    The description is deliberately minimal: the scheduler needs only
    latencies and reservation tables, and the simulator needs only latencies
    and the clock rate.  Everything else about the data path (crossbar,
    register-file geometry) is folded into those numbers.
    """

    def __init__(
        self,
        name: str,
        resources: list[Resource],
        op_classes: Mapping[str, OpClass],
        *,
        num_registers: int = 128,
        clock_mhz: float = 5.0,
        flop_opcodes: frozenset[str] = frozenset(),
    ) -> None:
        self.name = name
        # Units per resource name, in description order: every resource
        # check looks a reservation cell's name up here.
        self.resources: dict[str, int] = {}
        for res in resources:
            if res.name in self.resources:
                raise ValueError(f"duplicate resource {res.name!r}")
            self.resources[res.name] = res.count
        self.op_classes = dict(op_classes)
        # The most cycles one operation's reservation spans, so how far an
        # emitted instruction's resource use reaches past its own cycle.
        self.reach: int = max(
            (cls.reservation.length for cls in self.op_classes.values()),
            default=0,
        )
        self.num_registers = num_registers
        self.clock_mhz = clock_mhz
        self.flop_opcodes = flop_opcodes
        for cls in self.op_classes.values():
            for _, resource, amount in cls.reservation.cells:
                if resource not in self.resources:
                    raise ValueError(
                        f"op class {cls.name!r} uses unknown resource {resource!r}"
                    )
                if amount > self.resources[resource]:
                    raise ValueError(
                        f"op class {cls.name!r} needs {amount} x {resource!r}, "
                        f"machine has {self.resources[resource]}"
                    )
        # Nothing mutates a description after construction, so the cache
        # fingerprint is computed once here instead of on every lookup.
        self.fingerprint: str = self._fingerprint()

    def _fingerprint(self) -> str:
        """SHA-256 of everything scheduling-relevant: resources, op classes
        (latency + reservation rows), register count, and clock."""
        payload = {
            "name": self.name,
            "resources": dict(sorted(self.resources.items())),
            "num_registers": self.num_registers,
            "clock_mhz": self.clock_mhz,
            "flop_opcodes": sorted(self.flop_opcodes),
            "op_classes": {
                name: {
                    "latency": cls.latency,
                    "reservation": list(cls.reservation.cells),
                }
                for name, cls in sorted(self.op_classes.items())
            },
        }
        return hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()

    def op_class(self, opcode: str) -> OpClass:
        try:
            return self.op_classes[opcode]
        except KeyError:
            raise KeyError(
                f"machine {self.name!r} does not implement opcode {opcode!r}"
            ) from None

    def latency(self, opcode: str) -> int:
        return self.op_class(opcode).latency

    def reservation(self, opcode: str) -> ReservationTable:
        return self.op_class(opcode).reservation

    def units(self, resource: str) -> int:
        return self.resources[resource]

    @property
    def branch_reservation(self) -> ReservationTable:
        """What the loop-back ``cjump`` holds: one use per kernel iteration,
        issued at the kernel's last modulo row.

        The op class's own table is returned, so every scheduler shares
        one object.
        """
        return self.op_class("cjump").reservation

    def is_flop(self, opcode: str) -> bool:
        """Whether ``opcode`` counts as one floating-point operation when
        computing MFLOPS rates."""
        return opcode in self.flop_opcodes

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / (self.clock_mhz * 1e6)

    def __repr__(self) -> str:
        return f"MachineDescription({self.name!r}, {len(self.op_classes)} opcodes)"


def standard_op_classes(
    *,
    alu_latency: int,
    fadd_latency: int,
    fmul_latency: int,
    fdiv_latency: int,
    load_latency: int,
) -> dict[str, OpClass]:
    """Build the op-class map shared by all standard machine descriptions.

    The opcode vocabulary here must match :class:`repro.ir.Opcode` values.
    Ops run on the units ``alu``, ``fadd``, ``fmul``, ``mem`` and ``seq``;
    :func:`repro.machine.simple.make_custom` moves them elsewhere.
    """

    def cls(name: str, latency: int, resource: str) -> OpClass:
        return OpClass(name, latency, ReservationTable.single(resource))

    classes = {}
    for name in ("add", "sub", "mul", "div", "mod", "and", "or", "xor",
                 "shl", "shr", "neg", "not", "mov",
                 "lt", "le", "gt", "ge", "eq", "ne"):
        classes[name] = cls(name, alu_latency, "alu")
    for name in ("fadd", "fsub", "fneg", "fmov",
                 "flt", "fle", "fgt", "fge", "feq", "fne",
                 "fmax", "fmin", "fabs", "f2i", "i2f"):
        classes[name] = cls(name, fadd_latency, "fadd")
    classes["fmul"] = cls("fmul", fmul_latency, "fmul")
    classes["fdiv"] = cls("fdiv", fdiv_latency, "fmul")
    classes["load"] = cls("load", load_latency, "mem")
    classes["store"] = cls("store", 1, "mem")
    classes["cjump"] = cls("cjump", 1, "seq")
    classes["jump"] = cls("jump", 1, "seq")
    classes["cbr"] = cls("cbr", 1, "seq")
    classes["nop"] = OpClass("nop", 0, ReservationTable())
    return classes


FLOP_OPCODES = frozenset(
    {"fadd", "fsub", "fmul", "fdiv", "fneg", "fmax", "fmin", "fabs"}
)
