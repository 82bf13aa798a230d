"""Slow, obviously-correct reference implementations the tests hold the
shipped fast paths to.

* :func:`longest_paths` and :func:`numeric_recurrence_bound` — the
  original numeric Floyd-Warshall closure and the binary search over
  concrete intervals built on it, the oracle for
  :class:`repro.deps.paths.SymbolicPaths` (its dense matrices and its
  direct recurrence bound).
* :class:`DictModuloReservationTable` — the name-keyed modulo reservation
  table, the differential oracle for the integer-packed
  :class:`repro.core.mrt.ModuloReservationTable`.
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
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.emit import (
    InstructionBuffer,
    PipelinedLoopRegion,
    Renamer,
    SlotOp,
    flatten_node,
)
from repro.core.mve import ExpansionPlan
from repro.core.pipeliner import ModuloScheduler, PipelineResult, PreparedGraph
from repro.core.schedule import KernelSchedule
from repro.deps.graph import DepEdge, DepGraph, DepNode
from repro.deps.paths import NEG_INF, CyclicDependenceError
from repro.deps.scc import condensation_order
from repro.exact.backend import ExactScheduler
from repro.exact.encode import ModuloCnf
from repro.exact.solver import SAT, CdclSolver
from repro.frontend.lexer import KEYWORDS, SYMBOLS, LexError, Pragma, Token
from repro.ir.ops import Opcode, Operation
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
        for offset, resource, amount in reservation:
            row = (time + offset) % self.s
            used = self._rows[row].get(resource, 0)
            if used + amount > self.machine.units(resource):
                return False
        return True

    def place(self, reservation: ReservationTable, time: int) -> None:
        if not self.fits(reservation, time):
            raise ValueError(f"resource conflict placing pattern at time {time}")
        for offset, resource, amount in reservation:
            row = (time + offset) % self.s
            self._rows[row][resource] = self._rows[row].get(resource, 0) + amount

    def remove(self, reservation: ReservationTable, time: int) -> None:
        """All-or-nothing: validate every (row, resource) total first."""
        needed: dict[tuple[int, str], int] = {}
        for offset, resource, amount in reservation:
            key = ((time + offset) % self.s, resource)
            needed[key] = needed.get(key, 0) + amount
        for (row, resource), amount in needed.items():
            if self._rows[row].get(resource, 0) < amount:
                raise ValueError("removing a pattern that was never placed")
        for (row, resource), amount in needed.items():
            self._rows[row][resource] -= amount

    def earliest_fit(self, reservation: ReservationTable, earliest: int,
                     latest: int | None = None) -> int | None:
        cap = earliest + self.s - 1
        if latest is not None:
            cap = min(cap, latest)
        for time in range(earliest, cap + 1):
            if self.fits(reservation, time):
                return time
        return None


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
