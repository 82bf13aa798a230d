"""Slow, obviously-correct reference implementations the tests hold the
shipped fast paths to.

* :func:`longest_paths` and :func:`numeric_recurrence_bound` — the
  original numeric Floyd-Warshall closure and the binary search over
  concrete intervals built on it, the oracle for
  :class:`repro.deps.paths.SymbolicPaths` (its dense matrices and its
  direct recurrence bound).
* :class:`DictModuloReservationTable` — a modulo reservation table that
  sums each placement into one ``{resource: usage}`` dict per row, the
  differential oracle for :class:`repro.core.mrt.ModuloReservationTable`'s
  per-resource free units, and :class:`DictResourceGrid`, one such dict
  per absolute cycle, the oracle for its non-modulo counterpart
  :class:`repro.core.mrt.ResourceGrid`.
* :func:`reference_list_schedule` — the list scheduler with a Kahn
  topological pass for heights and a ready list re-sorted before every
  pick, the oracle for :func:`repro.core.listsched.list_schedule`'s one
  reverse sweep and heap.
* :func:`reference_tokenize` — the per-character scanner, the oracle for
  the one-regex :func:`repro.frontend.lexer.tokenize`.
* :func:`reference_emit_pipelined_loop` — prolog, kernel and epilog with
  one renaming per placement, the oracle for
  :func:`repro.core.emit.emit_pipelined_loop`'s one renaming per residue.
* :class:`ScanDecisionSolver` — the CDCL solver deciding by a scan of
  every variable, the oracle for :class:`repro.exact.solver.CdclSolver`'s
  order heap.
* :func:`whole_graph_windows` — the exact encoder's time windows from
  one numeric all-pairs closure of the whole graph, the oracle for
  :meth:`repro.exact.encode.ModuloCnf.time_windows`'s walk over the
  scheduler's prepared SCC closures.
* :class:`GlobalCeilingModuloCnf` — the modulo-scheduling encoding with
  one time ceiling shared by every node, the oracle for the per-node
  highs of those windows.
* :func:`schedule_at` — one initiation interval probed by either scheduler
  backend, for the tests that pin what a backend does at a given II.
* :func:`has_nontrivial_recurrence` — a loop's recurrence test by its own
  Tarjan pass, the oracle for ``LoopReport.has_recurrence``, which the
  compiler reads off the scheduler's prepared condensation.
* :func:`two_walk_loop_graphs` — a loop's modulo and block dependence
  graphs from one dependence walk each, the oracle for
  :func:`repro.deps.build.connect_loop_edges` feeding both from one walk.
* :func:`reference_cse` — common-subexpression elimination whose
  invalidation scans the whole value table and substitution map, the
  oracle for :mod:`repro.ir.cse`'s per-table register index.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.emit import (
    PipelinedLoopRegion,
    Renamer,
    SlotOp,
    WideInstruction,
    flatten_node,
)
from repro.core.mve import ExpansionPlan
from repro.core.pipeliner import ModuloScheduler, PipelineResult, PreparedGraph
from repro.core.reduction import LoopGraph
from repro.core.schedule import KernelSchedule
from repro.deps.affine import Affine, access_affine, compute_affine_map
from repro.deps.build import DependenceOptions, _invariant_regs, _mem_delay
from repro.deps.graph import (
    DefInfo,
    DepEdge,
    DepGraph,
    DepNode,
    MemAccess,
    UseInfo,
)
from repro.deps.paths import NEG_INF, CyclicDependenceError
from repro.deps.scc import condensation_order, strongly_connected_components
from repro.exact.backend import ExactScheduler
from repro.exact.encode import ModuloCnf
from repro.exact.solver import SAT, CdclSolver
from repro.frontend.lexer import KEYWORDS, SYMBOLS, LexError, Pragma, Token
from repro.ir.cse import _Cse, _single_def_regs
from repro.ir.operands import Reg
from repro.ir.ops import Opcode, Operation
from repro.ir.stmts import ForLoop, Program
from repro.machine.description import MachineDescription
from repro.machine.resources import ReservationTable


def longest_paths(
    nodes: Sequence[DepNode],
    edges: Sequence[DepEdge],
    s: int,
) -> Optional[list[list[float]]]:
    """All-points longest paths with edge weight ``delay - s * omega``.

    Returns the matrix (``NEG_INF`` where unreachable), or ``None`` if the
    graph has a positive cycle at this ``s`` (the initiation interval is
    infeasible for these recurrences).  The diagonal holds the longest
    nonempty cycle length through each node (or ``NEG_INF``).
    """
    n = len(nodes)
    local = {node.index: i for i, node in enumerate(nodes)}
    dist = [[NEG_INF] * n for _ in range(n)]
    for edge in edges:
        src = local.get(edge.src.index)
        dst = local.get(edge.dst.index)
        if src is None or dst is None:
            continue
        weight = edge.delay - s * edge.omega
        if weight > dist[src][dst]:
            dist[src][dst] = weight
    for k in range(n):
        for i in range(n):
            if dist[i][k] == NEG_INF:
                continue
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via > dist[i][j]:
                    dist[i][j] = via
    if any(dist[i][i] > 0 for i in range(n)):
        return None
    return dist


def numeric_recurrence_bound(
    nodes: Sequence[DepNode],
    edges: Sequence[DepEdge],
    upper_bound: int = 1 << 20,
) -> int:
    """The recurrence bound by binary search over concrete intervals, each
    probed with a full :func:`longest_paths` pass.

    Feasibility is monotone in ``s`` (cycle weights ``d(c) - s*p(c)`` only
    decrease as ``s`` grows), so the search is exact.
    """
    if longest_paths(nodes, edges, upper_bound) is None:
        raise CyclicDependenceError("zero-omega cycle with positive delay")
    lo, hi = 0, upper_bound
    while lo < hi:
        mid = (lo + hi) // 2
        if longest_paths(nodes, edges, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    return lo


class DictModuloReservationTable:
    """The name-keyed modulo reservation table: one ``{resource: usage}``
    dict per row, checked against :meth:`MachineDescription.units`."""

    def __init__(self, machine: MachineDescription, s: int) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.machine = machine
        self.s = s
        self._rows: list[dict[str, int]] = [dict() for _ in range(s)]

    def usage(self, row: int, resource: str) -> int:
        return self._rows[row % self.s].get(resource, 0)

    def fits(self, reservation: ReservationTable, time: int) -> bool:
        # Sum the pattern per row first: cells ``s`` apart share a row.
        need: dict[tuple[int, str], int] = {}
        for offset, resource, amount in reservation:
            key = ((time + offset) % self.s, resource)
            need[key] = need.get(key, 0) + amount
        return all(
            self._rows[row].get(resource, 0) + amount
            <= self.machine.units(resource)
            for (row, resource), amount in need.items()
        )

    def place(self, reservation: ReservationTable, time: int) -> None:
        if not self.fits(reservation, time):
            raise ValueError(f"resource conflict placing pattern at time {time}")
        for offset, resource, amount in reservation:
            row = (time + offset) % self.s
            self._rows[row][resource] = self._rows[row].get(resource, 0) + amount

    def earliest_fit(self, reservation: ReservationTable, earliest: int,
                     latest: int | None = None) -> int | None:
        cap = earliest + self.s - 1
        if latest is not None:
            cap = min(cap, latest)
        for time in range(earliest, cap + 1):
            if self.fits(reservation, time):
                return time
        return None

    def place_earliest(self, reservation: ReservationTable, earliest: int,
                       latest: int | None = None) -> int | None:
        time = self.earliest_fit(reservation, earliest, latest)
        if time is not None:
            self.place(reservation, time)
        return time


class DictResourceGrid:
    """Name-keyed non-modulo resource usage: one ``{resource: usage}`` dict
    per absolute cycle, never refusing a pattern."""

    def __init__(self, machine: MachineDescription) -> None:
        self.machine = machine
        self.rows: dict[int, dict[str, int]] = {}

    def fits(self, reservation: ReservationTable, time: int) -> bool:
        return all(
            self.rows.get(time + offset, {}).get(resource, 0) + amount
            <= self.machine.units(resource)
            for offset, resource, amount in reservation
        )

    def place_earliest(self, reservation: ReservationTable, time: int) -> int:
        while not self.fits(reservation, time):
            time += 1
        self.occupy(reservation, time)
        return time

    def occupy(self, reservation: ReservationTable, time: int) -> None:
        for offset, resource, amount in reservation:
            row = self.rows.setdefault(time + offset, {})
            row[resource] = row.get(resource, 0) + amount


def reference_list_schedule(
    reservations: Sequence[ReservationTable],
    spans: Sequence[int],
    succs: Sequence[Sequence[tuple[int, int]]],
    table,
) -> Optional[list[int]]:
    """List scheduling as two loops once did it: heights over a Kahn
    topological order, a ready list sorted by ``(-height, position)``
    before every pick, and each item's earliest start taken from its
    placed predecessors.  Accepts any acyclic edge set; a cycle raises."""
    n = len(reservations)
    preds: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i in range(n):
        for j, weight in succs[i]:
            preds[j].append((i, weight))
    remaining = [len(edges) for edges in preds]
    stack = [i for i in reversed(range(n)) if not remaining[i]]
    order: list[int] = []
    while stack:
        i = stack.pop()
        order.append(i)
        for j, _weight in succs[i]:
            remaining[j] -= 1
            if not remaining[j]:
                stack.append(j)
    if len(order) != n:
        raise ValueError("item graph is not acyclic")
    heights: dict[int, int] = {}
    for i in reversed(order):
        heights[i] = max(
            [spans[i]] + [weight + heights[j] for j, weight in succs[i]]
        )

    remaining = [len(edges) for edges in preds]
    ready = [i for i in range(n) if not remaining[i]]
    times: dict[int, int] = {}
    while ready:
        ready.sort(key=lambda i: (-heights[i], i))
        i = ready.pop(0)
        earliest = max([0] + [times[p] + weight for p, weight in preds[i]])
        time = table.place_earliest(reservations[i], earliest)
        if time is None:
            return None
        times[i] = time
        for j, _weight in succs[i]:
            remaining[j] -= 1
            if not remaining[j]:
                ready.append(j)
    return [times[i] for i in range(n)]


def reference_tokenize(source: str) -> tuple[list[Token], list[Pragma]]:
    """The per-character scanner: split source into tokens, skipping
    ``{...}`` comments but collecting ``{$name args}`` directives."""
    tokens: list[Token] = []
    pragmas: list[Pragma] = []
    pos, line = 0, 1
    n = len(source)
    while pos < n:
        ch = source[pos]
        if ch == "\n":
            line += 1
            pos += 1
            continue
        if ch.isspace():
            pos += 1
            continue
        if ch == "{":
            close = source.find("}", pos)
            if close < 0:
                raise LexError(f"line {line}: unterminated comment")
            body = source[pos + 1:close]
            if body.startswith("$"):
                parts = body[1:].replace(",", " ").split()
                if not parts:
                    raise LexError(f"line {line}: empty compiler directive")
                pragmas.append(Pragma(parts[0], tuple(parts[1:]), line))
            line += source.count("\n", pos, close)
            pos = close + 1
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and source[pos + 1].isdigit()):
            start = pos
            while pos < n and source[pos].isdigit():
                pos += 1
            is_float = False
            if pos < n and source[pos] == "." and pos + 1 < n and source[pos + 1].isdigit():
                is_float = True
                pos += 1
                while pos < n and source[pos].isdigit():
                    pos += 1
            if pos < n and source[pos] in "eE":
                after = pos + 1
                if after < n and source[after] in "+-":
                    after += 1
                if after < n and source[after].isdigit():
                    is_float = True
                    pos = after
                    while pos < n and source[pos].isdigit():
                        pos += 1
            text = source[start:pos]
            if is_float:
                tokens.append(Token("float", text, line, float(text)))
            else:
                tokens.append(Token("int", text, line, int(text)))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (source[pos].isalnum() or source[pos] == "_"):
                pos += 1
            text = source[start:pos]
            lowered = text.lower()
            if lowered in KEYWORDS:
                tokens.append(Token("keyword", lowered, line))
            else:
                tokens.append(Token("ident", text, line))
            continue
        for symbol in SYMBOLS:
            if source.startswith(symbol, pos):
                tokens.append(Token("symbol", symbol, line))
                pos += len(symbol)
                break
        else:
            raise LexError(f"line {line}: unexpected character {ch!r}")
    tokens.append(Token("eof", "", line))
    return tokens, pragmas


class InstructionBuffer:
    """Wide instructions that grow to take a slot at any time."""

    def __init__(self, length: int) -> None:
        self.instructions = [WideInstruction() for _ in range(max(0, length))]

    def add(self, time: int, slot: SlotOp) -> None:
        if time < 0:
            raise ValueError(f"slot scheduled at negative time {time}")
        while time >= len(self.instructions):
            self.instructions.append(WideInstruction())
        self.instructions[time].slots.append(slot)


def reference_emit_pipelined_loop(
    schedule: KernelSchedule,
    plan: ExpansionPlan,
    renamer: Renamer,
    passes,
    *,
    label: str = "",
) -> PipelinedLoopRegion:
    """Prolog, unrolled kernel and epilog of a modulo schedule, renaming
    every placement of every atom for its own iteration.  The epilog's
    slots carry iteration ``-j`` but are renamed for ``k - j``, which is
    congruent to the absolute ``n - j`` modulo every copy count."""
    graph, s = schedule.graph, schedule.ii
    u = plan.unroll
    k = schedule.stage_count - 1

    prolog = InstructionBuffer(k * s)
    kernel = InstructionBuffer(u * s)
    epilog = InstructionBuffer(max(0, schedule.completion_length - s))

    def place(buffer, atom, time, iteration, rename_iteration):
        buffer.add(time, SlotOp(renamer.rename(atom, rename_iteration),
                                iteration=iteration, preds=atom.preds,
                                cbr_uid=atom.cbr_uid))

    for node in sorted(graph.nodes, key=lambda n: n.index):
        sigma = schedule.times[node.index]
        for atom in flatten_node(node):
            e = sigma + atom.delta
            for i in range(k):
                t = i * s + e
                if t < k * s:
                    place(prolog, atom, t, i, i)
            for tau in range(e % s, u * s, s):
                c = (tau - e) // s
                place(kernel, atom, tau, k + c, k + c)
            for j in range(1, k + 1):
                t = e - j * s
                if t >= 0:
                    place(epilog, atom, t, -j, k - j)

    kernel.add(
        u * s - 1, SlotOp(Operation(Opcode.CJUMP, target=label or "kernel"))
    )
    return PipelinedLoopRegion(
        prolog=prolog.instructions,
        kernel=kernel.instructions,
        epilog=epilog.instructions,
        passes=passes,
        unroll=u,
        started_in_prolog=k,
        ii=s,
        label=label,
    )


class ScanDecisionSolver(CdclSolver):
    """:class:`CdclSolver` with the order heap's decisions made by a scan:
    the most active unassigned variable, the lowest index on ties."""

    def _decide(self) -> Optional[int]:
        best_var = 0
        best_activity = -1.0
        for var in range(1, self.num_vars + 1):
            if self._assign[var] == 0 and self._activity[var] > best_activity:
                best_var = var
                best_activity = self._activity[var]
        if best_var == 0:
            return None
        return best_var if self._phase[best_var] else -best_var


def _whole_graph_lows(
    graph: DepGraph, s: int
) -> tuple[list[int], list[list[float]]]:
    """Each node's least start at ``s``, in graph node order: its longest
    incoming path from anywhere, or 0; plus the closure it came from."""
    nodes = graph.nodes
    dist = longest_paths(nodes, graph.edges, s)
    if dist is None:
        raise ValueError(f"a recurrence is positive at s={s}")
    n = len(nodes)
    lows = [
        max([0] + [int(dist[u][v]) for u in range(n) if dist[u][v] != NEG_INF])
        for v in range(n)
    ]
    return lows, dist


def whole_graph_windows(graph: DepGraph, s: int) -> list[tuple[int, int]]:
    """The encoder's ``(lo, hi)`` windows in graph node order, read off a
    numeric all-pairs closure of the whole graph: the lows scan every
    pair, and the highs walk the condensation with the whole-graph
    matrix (the rule of :mod:`repro.exact.encode`'s docstring)."""
    lows, dist = _whole_graph_lows(graph, s)
    local = {node.index: i for i, node in enumerate(graph.nodes)}
    highs = [0] * len(graph.nodes)
    for component in condensation_order(graph):
        members = [local[node.index] for node in component]
        inside = set(members)
        entries = []
        for node in component:
            entry = s - 1
            for edge in graph.preds(node):
                u = local[edge.src.index]
                if u not in inside:
                    c = edge.delay - s * edge.omega
                    entry = max(entry, highs[u] + c + s - 1)
            entries.append(entry)
        spread = (len(members) - 1) * (s - 1)
        for v in members:
            highs[v] = spread + max(
                entry + (0 if w == v else int(dist[w][v]))
                for w, entry in zip(members, entries)
            )
    return list(zip(lows, highs))


class GlobalCeilingModuloCnf(ModuloCnf):
    """:class:`ModuloCnf` with every window closed by one ceiling: ``s - 1``
    for the grounded end of a tight chain, plus the ``n - 1`` largest edge
    terms ``max(delay - omega * s, 0) + s - 1``, one per tight edge of a
    chain through distinct nodes.  The lows are the whole-graph ones."""

    @staticmethod
    def time_windows(prepared: PreparedGraph, s: int) -> list[tuple[int, int]]:
        graph = prepared.graph
        terms = sorted(
            (
                max(edge.delay - s * edge.omega, 0) + s - 1
                for edge in graph.edges
                if edge.src is not edge.dst
            ),
            reverse=True,
        )
        high = (s - 1) + sum(terms[: max(0, len(graph.nodes) - 1)])
        lows, _ = _whole_graph_lows(graph, s)
        return [(lo, max(lo, high)) for lo in lows]


def schedule_at(
    scheduler: ModuloScheduler | ExactScheduler, graph: DepGraph, s: int
) -> Optional[PipelineResult]:
    """Attempt exactly interval ``s`` with ``scheduler``: the heuristic's
    one-interval attempt, or one SAT probe of the exact backend.  ``None``
    when ``s`` is below the recurrence bound or the attempt fails (for the
    exact backend: anything but a satisfiable model)."""
    if isinstance(scheduler, ExactScheduler):
        prepared = scheduler.heuristic.prepare(graph)
        if s < prepared.mii.recurrence:
            return None
        verdict, times, _ = scheduler._attempt(prepared, s)
        if verdict != SAT:
            return None
        return scheduler._package(prepared, s, times, [s])
    prepared = scheduler.prepare(graph)
    if s < prepared.mii.recurrence:
        return None
    return scheduler._try_interval(prepared, s, [s])


def has_nontrivial_recurrence(lg: LoopGraph) -> bool:
    """Whether the loop has a connected component in the paper's sense: a
    dependence cycle beyond the induction variable's own increment chain."""
    for component in strongly_connected_components(lg.graph):
        if len(component) > 1:
            return True
    return any(
        e.src is e.dst and e.src is not lg.increment for e in lg.graph.edges
    )


# -- the two-walk dependence builder ------------------------------------------


def _reference_register_edges(
    graph: DepGraph,
    nodes: Sequence[DepNode],
    *,
    cyclic: bool,
    expanded: frozenset[Reg],
) -> None:
    writers: dict[Reg, list[tuple[DepNode, DefInfo]]] = {}
    readers: dict[Reg, list[tuple[DepNode, UseInfo]]] = {}
    for node in nodes:
        for info in node.defs:
            writers.setdefault(info.reg, []).append((node, info))
        for use in node.uses:
            readers.setdefault(use.reg, []).append((node, use))

    for reg, defs in writers.items():
        uses = readers.get(reg, [])
        expand = cyclic and reg in expanded
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
                graph.add_edge(
                    def_node, use_node, info.write_latency - use.read_offset, 0,
                    "flow",
                )
            elif cyclic:
                def_node, info = defs[-1]
                graph.add_edge(
                    def_node, use_node, info.write_latency - use.read_offset, 1,
                    "flow",
                )
        # Anti and output dependences protect a storage *location*; modulo
        # variable expansion gives consecutive iterations distinct rotated
        # locations, so for expanded registers every anti/output edge is
        # dropped and the register-count computation (repro.core.mve) takes
        # over the job of keeping live values apart.
        if expand:
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
                graph.add_edge(
                    use_node, def_node,
                    use.read_offset - info.earliest_write + 1, 0, "anti",
                )
            elif cyclic:
                def_node, info = defs[0]
                graph.add_edge(
                    use_node, def_node,
                    use.read_offset - info.earliest_write + 1, 1, "anti",
                )
        # Output: consecutive definitions commit in order (transitively
        # implied for non-adjacent pairs).
        for (node_a, info_a), (node_b, info_b) in zip(defs, defs[1:]):
            graph.add_edge(
                node_a, node_b,
                info_a.write_latency - info_b.earliest_write + 1, 0, "output",
            )
        if cyclic:
            node_a, info_a = defs[-1]
            node_b, info_b = defs[0]
            graph.add_edge(
                node_a, node_b,
                info_a.write_latency - info_b.earliest_write + 1, 1, "output",
            )


def _reference_memory_edges(
    graph: DepGraph,
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
            _reference_pair(
                graph, node_a, acc_a, node_b, acc_b,
                step=step,
                cyclic=cyclic and not free_of_carried,
                fa=access_affine(acc_a, affine_map, iv, invariant),
                fb=access_affine(acc_b, affine_map, iv, invariant),
            )


def _reference_pair(
    graph: DepGraph,
    node_a: DepNode,
    acc_a: MemAccess,
    node_b: DepNode,
    acc_b: MemAccess,
    *,
    step: int,
    cyclic: bool,
    fa: Optional[Affine],
    fb: Optional[Affine],
) -> None:
    """Add dependence edges for one (source-ordered) pair of accesses.

    Same-iteration (omega = 0) edges are skipped when both accesses live in
    the same reduced node: they are either ordered by the construct's
    internal schedule or belong to mutually exclusive branch arms.
    """
    same_node = node_a is node_b
    if fa is not None and fb is not None and fa.shape() == fb.shape():
        # Subscripts differ by a compile-time constant in every iteration:
        # iteration j's A-access and iteration j+k's B-access collide iff
        # k * iv_coef * step == const_a - const_b.
        denom = fa.iv_coef * step
        diff = fa.const - fb.const
        if denom == 0:
            if diff != 0:
                return  # provably distinct, this and every other iteration
            if not same_node:
                graph.add_edge(node_a, node_b, _mem_delay(acc_a, acc_b), 0, "mem")
            if cyclic:
                graph.add_edge(node_b, node_a, _mem_delay(acc_b, acc_a), 1, "mem")
            return
        if diff % denom != 0:
            return  # subscripts never coincide
        distance = diff // denom
        if distance == 0:
            if not same_node:
                graph.add_edge(node_a, node_b, _mem_delay(acc_a, acc_b), 0, "mem")
        elif distance > 0:
            if cyclic:
                graph.add_edge(
                    node_a, node_b, _mem_delay(acc_a, acc_b), distance, "mem"
                )
        elif cyclic:
            graph.add_edge(
                node_b, node_a, _mem_delay(acc_b, acc_a), -distance, "mem"
            )
        return

    # May-alias: serialize in source order within an iteration and across
    # consecutive iterations (larger distances are implied by the schedule's
    # per-iteration regularity).
    if not same_node:
        graph.add_edge(node_a, node_b, _mem_delay(acc_a, acc_b), 0, "mem")
    if cyclic:
        graph.add_edge(node_b, node_a, _mem_delay(acc_b, acc_a), 1, "mem")


def two_walk_loop_graphs(lg: LoopGraph) -> tuple[DepGraph, DepGraph]:
    """``lg.graph`` and ``lg.block_graph`` rebuilt over ``lg``'s nodes by
    one walk each: the first with ``lg.options.expanded_regs`` dropping
    those registers' anti and output edges, the second with nothing
    expanded."""
    walks = (lg.options, DependenceOptions(lg.options.independent_arrays))
    graphs = []
    for options in walks:
        graph = DepGraph(lg.graph.nodes)
        nodes = sorted(graph.nodes, key=lambda n: n.index)
        _reference_register_edges(
            graph, nodes, cyclic=True, expanded=options.expanded_regs
        )
        _reference_memory_edges(
            graph, nodes, lg.loop, options, _invariant_regs(nodes)
        )
        graphs.append(graph)
    return graphs[0], graphs[1]


class ScanningCse(_Cse):
    """:class:`repro.ir.cse._Cse` with the invalidation it had before the
    register index: every redefinition scans the whole value table and
    the whole substitution map."""

    def _invalidate(self, table, reg: Reg) -> None:
        values = table.values
        dead = [
            key for key, value in values.items()
            if value == reg or any(src == reg for src in key[1])
        ]
        for key in dead:
            del values[key]
        stale = [old for old, new in self.replace.items() if new == reg]
        for old in stale:
            del self.replace[old]


def reference_cse(program: Program) -> Program:
    """``eliminate_common_subexpressions`` through :class:`ScanningCse`."""
    cse = ScanningCse(_single_def_regs(program))
    return Program(
        program.name, dict(program.arrays), cse.run_stmts(program.body)
    )
