"""The modulo-scheduling CNF encoding at one fixed initiation interval.

For a candidate interval ``s`` the constraints are finite-domain:

* every node needs one issue time ``sigma(v)`` inside a bounded window;
* every dependence edge ``u -> v`` needs
  ``sigma(v) - sigma(u) >= delay - omega * s``;
* every modulo row ``r`` and resource ``R`` must keep
  ``sum of uses landing on row r <= units(R)`` (with the machine's
  loop-back branch reservation pre-charged from the last row, exactly like
  the heuristic's pre-reserved slot).

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
solution, so a least one exists.  Within one strongly connected component
``dist`` is the component's longest-path matrix at ``s``, the dense form of
the scheduler's symbolic closure (paths between two nodes of a component
never leave it).  Both bounds come from one walk over the components in
topological order, the order :class:`~repro.core.pipeliner.PreparedGraph`
already keeps them in:

* The low of ``v`` is the least solution with every node at 0 or later:
  a node ``w`` of component ``C`` is entered no earlier than
  ``lo_entry(w) = max(0, lo(u) + c for edges u -> w from outside C)``,
  with ``c = delay - omega * s``, and
  ``lo(v) = max over w in C of (lo_entry(w) + dist[w][v])``.
* Upper bounds bound the least solution.  Call an edge ``u -> v`` *tight*
  in the least solution when ``sigma(v) - s < sigma(u) + c``.  Let ``S``
  be the set of nodes that no node below ``s`` reaches by a path of tight
  edges.  Every node of ``S`` could move down by ``s``: edges into ``S``
  are not tight, and edges leaving ``S`` only gain slack.  That
  contradicts leastness, so ``S`` is empty.
* So some node below ``s`` reaches ``v`` by a simple path of tight
  edges, and each tight edge adds at most ``c + s - 1``.  The path
  crosses each strongly connected component once, and inside a component
  it stays inside it, so ``dist`` bounds its weight there.  A node ``w``
  of ``C`` is entered no later than
  ``hi_entry(w) = max(s - 1, hi(u) + c + s - 1 for edges u -> w from
  outside C)``, and a node ``v`` of ``C`` gets
  ``hi(v) = max over w in C of (hi_entry(w) + dist[w][v]) + (|C| - 1) * (s - 1)``:
  at most ``|C| - 1`` tight edges inside ``C``, each at most ``s - 1``
  above its ``dist`` weight.

``dist[v][v]`` is read as 0 in both.  The lows are themselves a least
solution, so every window is nonempty.  ``s`` must be at least the
recurrence bound, as every probe of the exact backend's search is: below
it a recurrence is positive and the closures are not valid.
"""

from __future__ import annotations

from repro.core.pipeliner import PreparedGraph
from repro.exact.cnf import Cnf
from repro.machine.description import MachineDescription

#: Size caps on one encoding: the total (node, time) slots the windows
#: may span, and the formula's clause count.
MAX_TIME_SLOTS = 6000
MAX_CLAUSES = 200_000


class EncodingTooLarge(Exception):
    """The formula would exceed the caller's size budget."""


class ModuloCnf:
    """One graph at one initiation interval, encoded to CNF.

    Exceeding :data:`MAX_TIME_SLOTS` or :data:`MAX_CLAUSES` raises
    :class:`EncodingTooLarge`; the backend's search stops there with
    ``too_large``.
    """

    def __init__(
        self, prepared: PreparedGraph, machine: MachineDescription, s: int
    ) -> None:
        floor = max(1, prepared.mii.recurrence)
        if s < floor:
            raise ValueError(
                f"initiation interval must be >= {floor} (at least 1 and the"
                f" recurrence bound), got {s}"
            )
        self.graph = prepared.graph
        self.machine = machine
        self.s = s
        self.cnf = Cnf()
        self._nodes = self.graph.nodes
        self._local = {node.index: i for i, node in enumerate(self._nodes)}

        self._windows = self.time_windows(prepared, s)
        total_slots = sum(hi - lo + 1 for lo, hi in self._windows)
        if total_slots > MAX_TIME_SLOTS:
            raise EncodingTooLarge(
                f"{total_slots} time slots exceed the budget {MAX_TIME_SLOTS}"
            )

        # Order variables y[v][t] ("sigma(v) >= t") for t in (lo, hi];
        # sigma >= lo is constant true, sigma >= hi + 1 constant false.
        self._y: list[dict[int, int]] = []
        # Exact-time variables x[v][t] for t in [lo, hi].
        self._x: list[dict[int, int]] = []
        for lo, hi in self._windows:
            ys = dict(zip(range(lo + 1, hi + 1), self.cnf.new_vars(hi - lo)))
            xs = dict(zip(range(lo, hi + 1), self.cnf.new_vars(hi - lo + 1)))
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
        self._encode_resources()
        if len(self.cnf.clauses) > MAX_CLAUSES:
            raise EncodingTooLarge(
                f"{len(self.cnf.clauses)} clauses exceed the budget {MAX_CLAUSES}"
            )

    @staticmethod
    def time_windows(prepared: PreparedGraph, s: int) -> list[tuple[int, int]]:
        """Each node's ``(lo, hi)`` window at ``s``, in graph node order,
        from one walk over the condensation (see the module docstring)."""
        graph = prepared.graph
        local = {node.index: i for i, node in enumerate(graph.nodes)}
        item_of = prepared.item_of
        lows = [0] * len(graph.nodes)
        highs = [0] * len(graph.nodes)
        for slot, component in enumerate(prepared.components):
            entries = []
            for node in component:
                lo_entry, hi_entry = 0, s - 1
                for edge in graph.preds(node):
                    if item_of[edge.src.index] != slot:
                        u = local[edge.src.index]
                        c = edge.delay - s * edge.omega
                        lo_entry = max(lo_entry, lows[u] + c)
                        hi_entry = max(hi_entry, highs[u] + c + s - 1)
                entries.append((lo_entry, hi_entry))
            paths = prepared.paths[slot]
            if paths is None:
                v = local[component[0].index]
                lows[v], highs[v] = entries[0]
                continue
            dist = paths.dense(s)
            n = paths.n
            spread = (n - 1) * (s - 1)
            for j, node in enumerate(component):
                column = [0 if i == j else dist[i * n + j] for i in range(n)]
                v = local[node.index]
                lows[v] = max(lo + d for (lo, _), d in zip(entries, column))
                highs[v] = spread + max(
                    hi + d for (_, hi), d in zip(entries, column)
                )
        return list(zip(lows, highs))

    # -- constraint families --------------------------------------------------

    def _encode_precedence(self) -> None:
        for edge in self.graph.edges:
            if edge.src is edge.dst:
                continue  # holds at any s >= the recurrence bound
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

    def _encode_resources(self) -> None:
        s = self.s
        branch: dict[tuple[int, str], int] = {}
        for offset, resource, amount in self.machine.branch_reservation:
            key = ((s - 1 + offset) % s, resource)
            branch[key] = branch.get(key, 0) + amount
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
            limit = self.machine.units(resource) - branch.get((row, resource), 0)
            if limit < 0:
                self.cnf.add(lits[0])
                self.cnf.add(-lits[0])
                continue
            self.cnf.add_at_most_k(lits, limit)

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
