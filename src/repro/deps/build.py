"""Construction of dependence graphs from IR loop bodies.

Register dependences follow the classic flow/anti/output classification,
with delays derived from when a node reads (``read_offset``) and when its
result becomes consumable (``write_latency``).  Memory dependences come from
subscript analysis of ``base + offset`` array references: accesses based on
the loop induction variable get exact iteration distances, loop-invariant
bases are disambiguated by their constant offsets, and everything else is
treated conservatively.

The paper's Warp compiler relied on "compiler directives to disambiguate
array references" for some Livermore kernels (Table 4-2, footnote *);
:class:`DependenceOptions.independent_arrays` plays that role here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.deps.affine import Affine, access_affine, compute_affine_map
from repro.deps.graph import (
    DefInfo,
    DepEdge,
    DepGraph,
    DepNode,
    MemAccess,
    UseInfo,
)
from repro.ir.operands import Imm, Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import ForLoop
from repro.machine.description import MachineDescription


@dataclass(frozen=True)
class DependenceOptions:
    """Knobs for dependence construction.

    independent_arrays
        Arrays asserted (by the programmer) to carry no loop-borne
        dependences; only same-iteration ordering is kept.
    expanded_regs
        Registers for which modulo variable expansion will provide a fresh
        location per iteration: their cross-iteration anti and output
        dependences are dropped before scheduling (Lam 1988, section 2.3).
    """

    independent_arrays: frozenset[str] = frozenset()
    expanded_regs: frozenset[Reg] = frozenset()


def node_from_operation(
    op: Operation, machine: MachineDescription, index: int
) -> DepNode:
    """Wrap a plain operation as a dependence-graph node."""
    op_class = machine.op_class(op.opcode.value)
    defs: tuple[DefInfo, ...] = ()
    if op.dest is not None:
        defs = (DefInfo(op.dest, op_class.latency),)
    uses = tuple(UseInfo(reg, 0) for reg in op.src_regs)
    mem: tuple[MemAccess, ...] = ()
    if op.opcode is Opcode.LOAD:
        mem = (_access("load", op),)
    elif op.opcode is Opcode.STORE:
        mem = (_access("store", op),)
    return DepNode(
        index=index,
        reservation=op_class.reservation,
        payload=op,
        defs=defs,
        uses=uses,
        mem=mem,
    )


def _access(kind: str, op: Operation) -> MemAccess:
    base = op.srcs[0]
    if isinstance(base, Imm):
        return MemAccess(kind, op.array, None, int(base.value) + op.offset)
    return MemAccess(kind, op.array, base, op.offset)


def make_increment_node(
    loop: ForLoop, machine: MachineDescription, index: int
) -> DepNode:
    """The explicit induction-variable update ``iv := iv + step``."""
    op = Operation(Opcode.ADD, loop.var, (loop.var, Imm(loop.step)))
    return node_from_operation(op, machine, index)


# -- register dependences ----------------------------------------------------


def _register_edges(
    graphs: tuple[DepGraph, ...],
    nodes: Sequence[DepNode],
    *,
    cyclic: bool,
    expanded: frozenset[Reg],
) -> None:
    """Flow, anti and output edges, each built once and added to every
    graph in ``graphs``, except that the anti and output edges of an
    ``expanded`` register go only to ``graphs[1:]`` (see
    :func:`connect_loop_edges`)."""
    writers: dict[Reg, list[tuple[DepNode, DefInfo]]] = {}
    readers: dict[Reg, list[tuple[DepNode, UseInfo]]] = {}
    for node in nodes:
        for info in node.defs:
            writers.setdefault(info.reg, []).append((node, info))
        for use in node.uses:
            readers.setdefault(use.reg, []).append((node, use))

    for reg, defs in writers.items():
        uses = readers.get(reg, [])
        # Anti and output dependences protect a storage *location*; modulo
        # variable expansion gives consecutive iterations distinct rotated
        # locations, so for expanded registers the modulo graph drops every
        # anti/output edge (only the block graph keeps them) and the
        # register-count computation (repro.core.mve) takes over the job of
        # keeping live values apart.
        location_graphs = graphs[1:] if cyclic and reg in expanded else graphs
        # Flow: each use depends on its reaching definition.  True data flow
        # is never dropped by expansion — each iteration still reads the
        # value its predecessor produced, just from a rotated location.
        for use_node, use in uses:
            reaching = None
            for def_node, info in defs:
                if def_node.index < use_node.index:
                    reaching = (def_node, info)
            if reaching is not None:
                def_node, info = reaching
                edge = DepEdge(
                    def_node, use_node,
                    info.write_latency - use.read_offset, 0, "flow",
                )
            elif cyclic:
                def_node, info = defs[-1]
                edge = DepEdge(
                    def_node, use_node,
                    info.write_latency - use.read_offset, 1, "flow",
                )
            else:
                continue
            for graph in graphs:
                graph.add(edge)
        if not location_graphs:
            continue
        # Anti: a definition must not clobber the value a use still needs;
        # assume the clobbering write lands as early as it possibly can.
        for use_node, use in uses:
            next_def = None
            for def_node, info in defs:
                if def_node.index > use_node.index:
                    next_def = (def_node, info)
                    break
            if next_def is not None:
                def_node, info = next_def
                edge = DepEdge(
                    use_node, def_node,
                    use.read_offset - info.earliest_write + 1, 0, "anti",
                )
            elif cyclic:
                def_node, info = defs[0]
                edge = DepEdge(
                    use_node, def_node,
                    use.read_offset - info.earliest_write + 1, 1, "anti",
                )
            else:
                continue
            for graph in location_graphs:
                graph.add(edge)
        # Output: consecutive definitions commit in order (transitively
        # implied for non-adjacent pairs).
        for (node_a, info_a), (node_b, info_b) in zip(defs, defs[1:]):
            edge = DepEdge(
                node_a, node_b,
                info_a.write_latency - info_b.earliest_write + 1, 0, "output",
            )
            for graph in location_graphs:
                graph.add(edge)
        if cyclic:
            node_a, info_a = defs[-1]
            node_b, info_b = defs[0]
            edge = DepEdge(
                node_a, node_b,
                info_a.write_latency - info_b.earliest_write + 1, 1, "output",
            )
            for graph in location_graphs:
                graph.add(edge)


# -- memory dependences ------------------------------------------------------


def _mem_delay(first: MemAccess, second: MemAccess) -> int:
    """Delay so that ``second`` (issued at sigma2 + time_offset) respects
    ``first``.  A store's write is visible one cycle after it issues; a load
    reads memory as of the start of its cycle."""
    if first.is_store and not second.is_store:  # store -> load
        return first.time_offset - second.time_offset + 1
    if not first.is_store and second.is_store:  # load -> store
        return first.time_offset - second.time_offset
    return first.time_offset - second.time_offset + 1  # store -> store


def _memory_edges(
    graphs: tuple[DepGraph, ...],
    nodes: Sequence[DepNode],
    loop: Optional[ForLoop],
    options: DependenceOptions,
    invariant: set[Reg],
) -> None:
    accesses: list[tuple[DepNode, MemAccess]] = [
        (node, acc) for node in nodes for acc in node.mem
    ]
    cyclic = loop is not None
    step = loop.step if loop is not None else 1
    iv = loop.var if loop is not None else None
    affine_map = compute_affine_map(nodes, iv, invariant)

    for i, (node_a, acc_a) in enumerate(accesses):
        for node_b, acc_b in accesses[i + 1:]:
            if acc_a.array != acc_b.array:
                continue
            if not (acc_a.is_store or acc_b.is_store):
                continue
            free_of_carried = acc_a.array in options.independent_arrays
            for src, dst, delay, omega in _pair_edges(
                node_a, acc_a, node_b, acc_b,
                step=step,
                cyclic=cyclic and not free_of_carried,
                fa=access_affine(acc_a, affine_map, iv, invariant),
                fb=access_affine(acc_b, affine_map, iv, invariant),
            ):
                edge = DepEdge(src, dst, delay, omega, "mem")
                for graph in graphs:
                    graph.add(edge)


def _pair_edges(
    node_a: DepNode,
    acc_a: MemAccess,
    node_b: DepNode,
    acc_b: MemAccess,
    *,
    step: int,
    cyclic: bool,
    fa: Optional[Affine],
    fb: Optional[Affine],
) -> list[tuple[DepNode, DepNode, int, int]]:
    """Dependence edges ``(src, dst, delay, omega)`` for one
    (source-ordered) pair of accesses.

    Same-iteration (omega = 0) edges are skipped when both accesses live in
    the same reduced node: they are either ordered by the construct's
    internal schedule or belong to mutually exclusive branch arms.
    """
    if fa is not None and fb is not None and fa.shape() == fb.shape():
        # Subscripts differ by a compile-time constant in every iteration:
        # iteration j's A-access and iteration j+k's B-access collide iff
        # k * iv_coef * step == const_a - const_b.
        denom = fa.iv_coef * step
        diff = fa.const - fb.const
        if denom == 0:
            if diff != 0:
                return []  # provably distinct, this and every other iteration
            # Otherwise they collide in every iteration: ordered as below.
        else:
            if diff % denom != 0:
                return []  # subscripts never coincide
            distance = diff // denom
            if distance == 0:
                if node_a is node_b:
                    return []
                return [(node_a, node_b, _mem_delay(acc_a, acc_b), 0)]
            if not cyclic:
                return []
            if distance > 0:
                return [(node_a, node_b, _mem_delay(acc_a, acc_b), distance)]
            return [(node_b, node_a, _mem_delay(acc_b, acc_a), -distance)]

    # May-alias: serialize in source order within an iteration and across
    # consecutive iterations (larger distances are implied by the schedule's
    # per-iteration regularity).
    edges = []
    if node_a is not node_b:
        edges.append((node_a, node_b, _mem_delay(acc_a, acc_b), 0))
    if cyclic:
        edges.append((node_b, node_a, _mem_delay(acc_b, acc_a), 1))
    return edges


# -- entry points ------------------------------------------------------------


def _invariant_regs(nodes: Sequence[DepNode]) -> set[Reg]:
    defined = {info.reg for node in nodes for info in node.defs}
    used = {use.reg for node in nodes for use in node.uses}
    return used - defined


def connect_loop_edges(
    graph: DepGraph,
    loop: ForLoop,
    options: DependenceOptions = DependenceOptions(),
    *,
    block_graph: Optional[DepGraph] = None,
) -> None:
    """Add all dependence edges for a loop body already turned into nodes.

    ``block_graph``, a second graph over the same nodes, is connected by
    the same walk as if no register were expanded: it receives every edge
    ``graph`` does, in the same order, and also the anti and output edges
    of ``options.expanded_regs``.
    """
    nodes = sorted(graph.nodes, key=lambda n: n.index)
    invariant = _invariant_regs(nodes)
    graphs = (graph,) if block_graph is None else (graph, block_graph)
    _register_edges(
        graphs, nodes, cyclic=True, expanded=options.expanded_regs
    )
    _memory_edges(graphs, nodes, loop, options, invariant)


def connect_block_edges(graph: DepGraph) -> None:
    """Add same-iteration edges only (basic-block scheduling)."""
    nodes = sorted(graph.nodes, key=lambda n: n.index)
    invariant = _invariant_regs(nodes)
    _register_edges((graph,), nodes, cyclic=False, expanded=frozenset())
    _memory_edges((graph,), nodes, None, DependenceOptions(), invariant)


def build_block_graph(
    ops: Sequence[Operation], machine: MachineDescription
) -> DepGraph:
    """Dependence graph of a straight-line block (acyclic by construction)."""
    graph = DepGraph()
    for index, op in enumerate(ops):
        graph.add_node(node_from_operation(op, machine, index))
    connect_block_edges(graph)
    return graph


def build_loop_graph(
    loop: ForLoop,
    machine: MachineDescription,
    options: DependenceOptions = DependenceOptions(),
) -> DepGraph:
    """Dependence graph of a loop with a straight-line body.

    The induction-variable increment is materialised as an explicit node
    with index ``len(body)``.  Compound statements (IFs, nested loops) are
    handled by :mod:`repro.core.reduction`, which reduces them to nodes
    before calling :func:`connect_loop_edges`.
    """
    graph = DepGraph()
    for index, stmt in enumerate(loop.body):
        if not isinstance(stmt, Operation):
            raise TypeError(
                f"build_loop_graph needs a straight-line body; found {stmt!r}"
                " (use repro.core.reduction for compound bodies)"
            )
        graph.add_node(node_from_operation(stmt, machine, index))
    graph.add_node(make_increment_node(loop, machine, len(loop.body)))
    connect_loop_edges(graph, loop, options)
    return graph
