"""Machine descriptions: opcode classes, latencies, and resource limits."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.machine.packed import PackedReservation
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


#: Packed-reservation memo size per machine.  Op-class tables (a few
#: dozen, shared across nodes) plus the working set of transient cluster
#: aggregates fit comfortably; a full memo is cleared, which merely costs
#: a repack.
_PACKED_CACHE_LIMIT = 512


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
        self.resources: dict[str, int] = {}
        for res in resources:
            if res.name in self.resources:
                raise ValueError(f"duplicate resource {res.name!r}")
            self.resources[res.name] = res.count
        # Interned resource identities: every resource gets a dense index
        # (description order) so the scheduler's hot paths deal in small
        # integers instead of name strings.  ``unit_bits[rid]`` is the
        # bitmask bit for unit-capacity resources (0 for multi-capacity
        # ones, which are tracked by counters, never by bits).
        self.resource_names: tuple[str, ...] = tuple(self.resources)
        self.resource_index: dict[str, int] = {
            rname: rid for rid, rname in enumerate(self.resource_names)
        }
        self.unit_counts: tuple[int, ...] = tuple(self.resources.values())
        self.unit_bits: tuple[int, ...] = tuple(
            (1 << rid) if count == 1 else 0
            for rid, count in enumerate(self.unit_counts)
        )
        self._packed: dict[int, tuple[ReservationTable, PackedReservation]] = {}
        self.op_classes = dict(op_classes)
        self.num_registers = num_registers
        self.clock_mhz = clock_mhz
        self.flop_opcodes = flop_opcodes
        for cls in self.op_classes.values():
            for _, resource, amount in cls.reservation:
                if resource not in self.resources:
                    raise ValueError(
                        f"op class {cls.name!r} uses unknown resource {resource!r}"
                    )
                if amount > self.resources[resource]:
                    raise ValueError(
                        f"op class {cls.name!r} needs {amount} x {resource!r}, "
                        f"machine has {self.resources[resource]}"
                    )

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

    def packed(self, reservation: ReservationTable) -> PackedReservation:
        """``reservation`` compiled to this machine's integer layout,
        memoized by table identity.

        Identity (not content) keying makes the memo a plain dict probe:
        op-class tables are shared objects, so every node of one opcode
        hits the same entry.  The strong table reference keeps ids from
        being recycled; the cache is bounded because cluster aggregates
        are transient (one per scheduled component per II attempt).

        Thread workers share one machine, so the memo is only touched by
        single dict operations: a full memo is emptied with one
        ``clear()`` rather than evicted key by key, which two threads
        could race on.
        """
        key = id(reservation)
        hit = self._packed.get(key)
        if hit is not None and hit[0] is reservation:
            return hit[1]
        packed = PackedReservation.compile(reservation, self)
        if len(self._packed) >= _PACKED_CACHE_LIMIT:
            self._packed.clear()
        self._packed[key] = (reservation, packed)
        return packed

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
    alu_resource: str = "alu",
    fadd_resource: str = "fadd",
    fmul_resource: str = "fmul",
    mem_resource: str = "mem",
    branch_resource: str = "seq",
) -> dict[str, OpClass]:
    """Build the op-class map shared by all standard machine descriptions.

    The opcode vocabulary here must match :class:`repro.ir.Opcode` values.
    """

    def cls(name: str, latency: int, resource: str) -> OpClass:
        return OpClass(name, latency, ReservationTable.single(resource))

    classes = {}
    for name in ("add", "sub", "mul", "div", "mod", "and", "or", "xor",
                 "shl", "shr", "neg", "not", "mov",
                 "lt", "le", "gt", "ge", "eq", "ne"):
        classes[name] = cls(name, alu_latency, alu_resource)
    for name in ("fadd", "fsub", "fneg", "fmov",
                 "flt", "fle", "fgt", "fge", "feq", "fne",
                 "fmax", "fmin", "fabs", "f2i", "i2f"):
        classes[name] = cls(name, fadd_latency, fadd_resource)
    classes["fmul"] = cls("fmul", fmul_latency, fmul_resource)
    classes["fdiv"] = cls("fdiv", fdiv_latency, fmul_resource)
    classes["load"] = cls("load", load_latency, mem_resource)
    classes["store"] = cls("store", 1, mem_resource)
    classes["cjump"] = cls("cjump", 1, branch_resource)
    classes["jump"] = cls("jump", 1, branch_resource)
    classes["cbr"] = cls("cbr", 1, branch_resource)
    classes["nop"] = OpClass("nop", 0, ReservationTable())
    return classes


FLOP_OPCODES = frozenset(
    {"fadd", "fsub", "fmul", "fdiv", "fneg", "fmax", "fmin", "fabs"}
)
