"""The modulo-scheduling CNF encoding at one fixed initiation interval.

For a candidate interval ``s`` the constraints are finite-domain:

* every node needs one issue time ``sigma(v)`` inside a bounded window;
* every dependence edge ``u -> v`` needs
  ``sigma(v) - sigma(u) >= delay - omega * s``;
* every modulo row ``r`` and resource ``R`` must keep
  ``sum of uses landing on row r <= units(R)`` (with the loop-back branch
  pre-charged to the sequencer's last row, exactly like the heuristic's
  pre-reserved slot).

Times use the *order encoding* standard in SAT scheduling: a variable
``y[v][t]`` per node and window slot meaning ``sigma(v) >= t``, which turns
each precedence constraint into one binary clause per slot instead of the
quadratic forbidden-pair encoding.  Exact-time variables ``x[v][t]``
(channelled to the order variables) carry the modulo resource cardinality
constraints via the sequential counter in :mod:`repro.exact.cnf`.

Completeness of the windows: any feasible schedule can be shifted by a
multiple of ``s`` (preserving all rows and all differences) so its minimum
time lies in ``[0, s)``, and then each time can be replaced by the *least*
solution of the difference constraints with the same residues — the
pointwise minimum of two solutions with equal residues is again a
solution, so a least one exists.  In the least solution every node is
either grounded below ``s`` or tight through a chain of distinct nodes,
each tight edge adding at most ``max(delay - omega*s, 0) + s - 1``; hence
an upper bound of ``s - 1`` plus the sum of the ``n - 1`` largest such edge
terms.  Lower bounds come from the all-points longest paths at ``s``
(warm-started from the heuristic's per-component symbolic closures when a
:class:`~repro.core.pipeliner.PreparedGraph` is supplied).
"""

from __future__ import annotations

from typing import Optional

from repro.deps.graph import DepGraph
from repro.exact.cnf import Cnf
from repro.machine.description import MachineDescription

NEG_INF = float("-inf")


class EncodingTooLarge(Exception):
    """The formula would exceed the caller's size budget."""


class InfeasibleInterval(Exception):
    """The interval violates a recurrence: no schedule exists at this
    ``s`` regardless of resources (a positive cycle in the difference
    constraints)."""


def _longest_paths_at(
    graph: DepGraph,
    s: int,
    prepared=None,
) -> list[list[float]]:
    """All-points longest paths with weights ``delay - s * omega``.

    When the heuristic's :class:`PreparedGraph` is supplied, intra-component
    distances are seeded from its symbolic closures' dense matrices and
    the Floyd-Warshall pass only has to fold in the cross-component edges.

    Raises :class:`InfeasibleInterval` on a positive cycle.
    """
    nodes = graph.nodes
    n = len(nodes)
    local = {node.index: i for i, node in enumerate(nodes)}
    dist: list[list[float]] = [[NEG_INF] * n for _ in range(n)]
    if prepared is not None:
        for slot, paths in enumerate(prepared.paths):
            if paths is None:
                continue
            if s < paths.s_min:
                # Below the component's own recurrence bound the interval
                # is infeasible outright; dense() would reject it.
                raise InfeasibleInterval(
                    f"s={s} below component recurrence bound {paths.s_min}"
                )
            block = paths.dense(s)  # flat, row stride paths.n
            stride = paths.n
            members = prepared.components[slot]
            for src in members:
                row = dist[local[src.index]]
                src_base = paths.local[src.index] * stride
                for dst in members:
                    row[local[dst.index]] = block[src_base + paths.local[dst.index]]
    for edge in graph.edges:
        i, j = local[edge.src.index], local[edge.dst.index]
        weight = edge.delay - s * edge.omega
        if i == j:
            if weight > 0:
                raise InfeasibleInterval(
                    f"self-recurrence on node {edge.src.index} positive at s={s}"
                )
            continue
        if weight > dist[i][j]:
            dist[i][j] = weight
    for k in range(n):
        dist_k = dist[k]
        for i in range(n):
            d_ik = dist[i][k]
            if d_ik == NEG_INF:
                continue
            row = dist[i]
            for j in range(n):
                via = d_ik + dist_k[j]
                if via > row[j]:
                    row[j] = via
    for i in range(n):
        if dist[i][i] > 0:
            raise InfeasibleInterval(f"positive dependence cycle at s={s}")
    return dist


class ModuloCnf:
    """One graph at one initiation interval, encoded to CNF.

    ``max_time_slots`` bounds the total number of (node, time) slots the
    windows may span; ``max_clauses`` bounds the formula size.  Exceeding
    either raises :class:`EncodingTooLarge` so the backend can fall back.
    """

    def __init__(
        self,
        graph: DepGraph,
        machine: MachineDescription,
        s: int,
        *,
        reserved_branch: Optional[str] = "seq",
        prepared=None,
        max_time_slots: Optional[int] = None,
        max_clauses: Optional[int] = None,
    ) -> None:
        if s < 1:
            raise ValueError(f"initiation interval must be >= 1, got {s}")
        self.graph = graph
        self.machine = machine
        self.s = s
        self.cnf = Cnf()
        self._nodes = graph.nodes
        self._local = {node.index: i for i, node in enumerate(self._nodes)}

        dist = _longest_paths_at(graph, s, prepared)
        n = len(self._nodes)
        lows = [
            max(
                0,
                max(
                    (int(dist[u][v]) for u in range(n) if dist[u][v] != NEG_INF),
                    default=0,
                ),
            )
            for v in range(n)
        ]
        # Upper bound: s - 1 for the grounded end of a tight chain, plus
        # the n - 1 largest per-edge slack terms (see module docstring).
        terms = sorted(
            (
                max(edge.delay - s * edge.omega, 0) + s - 1
                for edge in graph.edges
                if edge.src is not edge.dst
            ),
            reverse=True,
        )
        high = (s - 1) + sum(terms[: max(0, n - 1)])
        # All windows share the global ceiling; a node's own low may reach
        # it, leaving a one-slot window, which is fine — only differences
        # between nodes matter.
        self._windows = [(lo, max(lo, high)) for lo in lows]
        total_slots = sum(hi - lo + 1 for lo, hi in self._windows)
        if max_time_slots is not None and total_slots > max_time_slots:
            raise EncodingTooLarge(
                f"{total_slots} time slots exceed the budget {max_time_slots}"
            )

        # Order variables y[v][t] ("sigma(v) >= t") for t in (lo, hi];
        # sigma >= lo is constant true, sigma >= hi + 1 constant false.
        self._y: list[dict[int, int]] = []
        # Exact-time variables x[v][t] for t in [lo, hi].
        self._x: list[dict[int, int]] = []
        for v, (lo, hi) in enumerate(self._windows):
            label = self._nodes[v].index
            ys = {
                t: self.cnf.new_var(f"y.n{label}.ge{t}")
                for t in range(lo + 1, hi + 1)
            }
            xs = {
                t: self.cnf.new_var(f"x.n{label}.at{t}")
                for t in range(lo, hi + 1)
            }
            self._y.append(ys)
            self._x.append(xs)
            for t in range(lo + 1, hi):
                self.cnf.add(-ys[t + 1], ys[t])  # monotone chain
            for t in range(lo, hi + 1):
                x = xs[t]
                above = ys.get(t + 1) if t + 1 <= hi else None
                at = ys.get(t) if t > lo else None
                if at is None and above is None:
                    self.cnf.add(x)  # one-slot window: forced
                    continue
                if at is not None:
                    self.cnf.add(-x, at)
                if above is not None:
                    self.cnf.add(-x, -above)
                support = [x]
                if at is not None:
                    support.append(-at)
                if above is not None:
                    support.append(above)
                self.cnf.add(*support)

        self._encode_precedence()
        self._encode_resources(reserved_branch)
        if max_clauses is not None and len(self.cnf.clauses) > max_clauses:
            raise EncodingTooLarge(
                f"{len(self.cnf.clauses)} clauses exceed the budget {max_clauses}"
            )

    # -- constraint families --------------------------------------------------

    def _encode_precedence(self) -> None:
        for edge in self.graph.edges:
            if edge.src is edge.dst:
                continue  # feasibility already checked by the closure
            u = self._local[edge.src.index]
            v = self._local[edge.dst.index]
            c = edge.delay - self.s * edge.omega
            lo_u, hi_u = self._windows[u]
            lo_v, hi_v = self._windows[v]
            for t in range(lo_u, hi_u + 1):
                # sigma(u) >= t  ->  sigma(v) >= t + c
                want = t + c
                if want <= lo_v:
                    continue  # consequent constant true
                antecedent = None if t <= lo_u else -self._y[u][t]
                if want > hi_v:
                    # Consequent constant false: sigma(u) must stay < t.
                    if antecedent is None:
                        # sigma(u) >= lo_u always holds: the edge is
                        # unsatisfiable inside these windows.
                        self.cnf.add(self._x[u][lo_u])
                        self.cnf.add(-self._x[u][lo_u])
                    else:
                        self.cnf.add(antecedent)
                    break
                consequent = self._y[v][want]
                if antecedent is None:
                    self.cnf.add(consequent)
                else:
                    self.cnf.add(antecedent, consequent)

    def _encode_resources(self, reserved_branch: Optional[str]) -> None:
        s = self.s
        rows: dict[tuple[int, str], list[int]] = {}
        for v, node in enumerate(self._nodes):
            lo, hi = self._windows[v]
            for offset, resource, amount in node.reservation:
                for t in range(lo, hi + 1):
                    key = ((t + offset) % s, resource)
                    rows.setdefault(key, []).extend(
                        [self._x[v][t]] * amount
                    )
        for (row, resource), lits in sorted(rows.items()):
            limit = self.machine.units(resource)
            if reserved_branch == resource and row == (s - 1) % s:
                limit -= 1
            if limit < 0:
                self.cnf.add(lits[0])
                self.cnf.add(-lits[0])
                continue
            self.cnf.add_at_most_k(lits, limit, name=f"r{row}.{resource}")

    # -- decoding -------------------------------------------------------------

    def decode(self, model: dict[int, bool]) -> dict[int, int]:
        """Schedule times from a satisfying model, shifted by a multiple of
        ``s`` so the earliest time lands in ``[0, s)`` (rows preserved)."""
        times: dict[int, int] = {}
        for v, node in enumerate(self._nodes):
            lo, hi = self._windows[v]
            chosen = [t for t in range(lo, hi + 1) if model[self._x[v][t]]]
            if len(chosen) != 1:
                raise ValueError(
                    f"model assigns node {node.index} {len(chosen)} times"
                )
            times[node.index] = chosen[0]
        base = min(times.values())
        shift = self.s * (base // self.s)
        return {index: t - shift for index, t in times.items()}

    @property
    def num_vars(self) -> int:
        return self.cnf.num_vars

    @property
    def clauses(self) -> list[list[int]]:
        return self.cnf.clauses

    def window(self, node_index: int) -> tuple[int, int]:
        v = self._local[node_index]
        return self._windows[v]
