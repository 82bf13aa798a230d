"""Dependence graph data structures.

A :class:`DepNode` abstracts over what is being scheduled: a plain operation
or a hierarchically reduced construct.  The scheduler only ever looks at a
node's reservation table and the graph's edges; code emission looks at the
payload.  Reduction (section 3 of the paper) works by building nodes whose
def/use summaries carry internal time offsets, so the generic edge
construction rules produce exactly the adjusted constraints.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.ir.operands import Reg
from repro.machine.resources import ReservationTable


@dataclass(frozen=True)
class DefInfo:
    """A register defined by a node.

    ``write_latency`` is the number of cycles after the node's start at
    which the new value may be consumed by a dependent read (an upper bound
    on the commit time).  ``earliest_write`` is a lower bound on the commit
    time; anti- and output-dependences *into* this definition must assume
    the write could land that early.  For simple operations the two
    coincide; they differ for reduced conditionals whose arms write the
    register at different times.
    """

    reg: Reg
    write_latency: int
    earliest_write: int = -1

    def __post_init__(self) -> None:
        if self.earliest_write < 0:
            object.__setattr__(self, "earliest_write", self.write_latency)


@dataclass(frozen=True)
class UseInfo:
    """A register read by a node, ``read_offset`` cycles after its start."""

    reg: Reg
    read_offset: int = 0


@dataclass(frozen=True)
class MemAccess:
    """One memory access performed by a node.

    ``base_reg`` plus constant ``offset`` form the subscript.  ``time_offset``
    is when (relative to node start) the access issues.  A store's write
    becomes visible one cycle after it issues; a load reads memory as of the
    start of its issue cycle.
    """

    kind: str  # "load" | "store"
    array: str
    base_reg: Optional[Reg]
    offset: int
    time_offset: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("load", "store"):
            raise ValueError(f"bad memory access kind {self.kind!r}")

    @property
    def is_store(self) -> bool:
        return self.kind == "store"


@dataclass
class DepNode:
    """A schedulable unit.

    index
        Position in source order; used for deterministic tie-breaking and
        for orienting same-iteration memory dependences.
    payload
        An :class:`repro.ir.Operation` for simple nodes, or a reduction
        object (see :mod:`repro.core.reduction`) for compound nodes.
    """

    index: int
    reservation: ReservationTable
    payload: object
    defs: tuple[DefInfo, ...] = ()
    uses: tuple[UseInfo, ...] = ()
    mem: tuple[MemAccess, ...] = ()
    label: str = ""
    #: Cycles spanned by the node's reservation pattern (>= 1), fixed at
    #: construction: the schedulers read it once per placement.
    length: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.length = max(1, self.reservation.length)

    def def_of(self, reg: Reg) -> Optional[DefInfo]:
        for info in self.defs:
            if info.reg == reg:
                return info
        return None

    @property
    def name(self) -> str:
        """The label, or the payload's repr for nodes built without one."""
        return self.label or repr(self.payload)

    def __repr__(self) -> str:
        return f"<node {self.index}: {self.name}>"

    def __hash__(self) -> int:
        return id(self)


@dataclass(frozen=True)
class DepEdge:
    """``dst`` must start at least ``delay - s * omega`` cycles after
    ``src`` (s = initiation interval).  ``omega`` is the paper's minimum
    iteration difference p and is always >= 0; ``delay`` may be negative
    (anti-dependences on long-latency defs)."""

    src: DepNode
    dst: DepNode
    delay: int
    omega: int
    kind: str = "flow"

    def __post_init__(self) -> None:
        if self.omega < 0:
            raise ValueError("minimum iteration difference must be nonnegative")

    def __repr__(self) -> str:
        return (
            f"Edge({self.src.index} -> {self.dst.index},"
            f" d={self.delay}, p={self.omega}, {self.kind})"
        )


class DepGraph:
    """A dependence graph over :class:`DepNode` objects.

    Parallel edges with equal ``(src, dst, omega)`` are collapsed to the one
    with the largest delay: every weaker constraint is implied.  Edges are
    frozen, so one :class:`DepEdge` may sit in several graphs over the same
    nodes (see :func:`repro.deps.build.connect_loop_edges`).
    """

    def __init__(self, nodes: Iterable[DepNode] = ()) -> None:
        self.nodes: list[DepNode] = list(nodes)
        self._edge_map: dict[tuple[int, int, int], DepEdge] = {}
        self._succs: defaultdict[int, list[DepEdge]] = defaultdict(list)
        self._preds: defaultdict[int, list[DepEdge]] = defaultdict(list)

    def add_node(self, node: DepNode) -> DepNode:
        self.nodes.append(node)
        return node

    def add_edge(self, src: DepNode, dst: DepNode, delay: int, omega: int,
                 kind: str = "flow") -> None:
        self.add(DepEdge(src, dst, delay, omega, kind))

    def add(self, edge: DepEdge) -> None:
        """Add ``edge`` unless an edge with the same ``(src, dst, omega)``
        and at least its delay is already here; a weaker one is replaced."""
        src = edge.src
        if edge.omega == 0 and src is edge.dst:
            if edge.delay > 0:
                raise ValueError(
                    f"illegal zero-iteration self-dependence with delay"
                    f" {edge.delay} on {src!r}"
                )
            return  # vacuous constraint
        key = (src.index, edge.dst.index, edge.omega)
        existing = self._edge_map.get(key)
        if existing is not None:
            if edge.delay <= existing.delay:
                return
            self._unlink(existing)
        self._edge_map[key] = edge
        self._succs[src.index].append(edge)
        self._preds[edge.dst.index].append(edge)

    def _unlink(self, edge: DepEdge) -> None:
        self._succs[edge.src.index].remove(edge)
        self._preds[edge.dst.index].remove(edge)

    @property
    def edges(self) -> list[DepEdge]:
        return list(self._edge_map.values())

    def succs(self, node: DepNode) -> list[DepEdge]:
        return self._succs.get(node.index, [])

    def preds(self, node: DepNode) -> list[DepEdge]:
        return self._preds.get(node.index, [])

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:
        return f"DepGraph({len(self.nodes)} nodes, {len(self._edge_map)} edges)"
