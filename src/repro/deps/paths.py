"""Longest-path machinery for precedence closures and the recurrence bound.

The paper computes, once per strongly connected component, the closure of
the precedence constraints via an all-points longest-path with a *symbolic*
initiation interval (section 2.2.2).  A path accumulates a total delay ``d``
and a total iteration difference ``p``; at initiation interval ``s`` its
effective length is ``d - s * p``.  With a symbolic ``s`` a path's cost is
the pair ``(d, p)``, and only the Pareto frontier of pairs can ever achieve
the maximum, so :class:`SymbolicPaths` stores frontier sets and evaluates
them for each concrete ``s`` the iterative scheduler tries.

The recurrence-constrained lower bound on the initiation interval —
``max(ceil(d(c) / p(c)))`` over dependence cycles ``c`` — is computed first
and directly: feasibility of an integer ``s`` (no positive cycle under
weights ``d - s*p``) is monotone in ``s`` and each probe is one
early-terminating Bellman-Ford sweep, so a galloping search starting from
the best self-edge ratio finds the exact bound in a handful of O(nE)
passes.  That is far cheaper than any all-points closure, and it makes the
closure itself cheaper too: the Pareto build can prune with the *final*
bound from its first insertion instead of tightening adaptively, so cycle
wrap-around is dominated on sight and no re-pruning pass is needed.

The closure is built lazily, on the first frontier or dense query: callers
that only want the bound (the MII computation, the ``closure``
microbenchmark) never pay for it.  Cells are pruned with the value rule at
``S = max(1, recurrence_bound)``: pair ``(d1, p1)`` dominates
``(d2, p2)`` iff ``d1 - s*p1 >= d2 - s*p2`` for all ``s >= S``, i.e.
``p1 <= p2`` and ``d2 - d1 <= S * (p2 - p1)``.  Surviving frontiers are
tiny and kept sorted by omega (and hence by delay and by value at ``S``,
all strictly increasing).

Everything on the hot path is integer-packed.  The frontier table is flat
with manual row strides, and — because the overwhelming majority of cells
hold exactly one surviving pair — scalar cells live directly in parallel
``p``/``d``/``value`` arrays, with only the rare multi-pair cells spilled
to sorted ``(p, d)`` lists (plain tuple comparison *is* the omega order,
so the bisections need no key function).  Per candidate initiation
interval the scheduler materializes the dense matrix once per component
(:meth:`SymbolicPaths.dense`), a linear sweep over a CSR view of the
frontiers (pair arrays plus cell starts); its O(n^2) range queries are
then flat array lookups.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional, Sequence

from repro.deps.graph import DepEdge, DepNode

NEG_INF = float("-inf")

_ZERO_OMEGA_CYCLE = (
    "dependence cycle with zero iteration difference and positive delay"
)


class CyclicDependenceError(Exception):
    """A zero-iteration-difference dependence cycle has positive delay:
    no initiation interval can satisfy it."""


def _local_edges(
    nodes: Sequence[DepNode], edges: Sequence[DepEdge]
) -> list[tuple[int, int, int, int]]:
    """Edges among ``nodes``, as (src_local, dst_local, delay, omega)."""
    local = {node.index: i for i, node in enumerate(nodes)}
    out = []
    for edge in edges:
        src = local.get(edge.src.index)
        dst = local.get(edge.dst.index)
        if src is not None and dst is not None:
            out.append((src, dst, edge.delay, edge.omega))
    return out


# -- symbolic closure --------------------------------------------------------

#: A Pareto frontier of (delay, omega) path costs as exposed by
#: :meth:`SymbolicPaths.frontier`, kept sorted by omega.  Surviving pairs
#: are strictly increasing in omega, in delay, and in value at the pruning
#: bound.  (Internally cells store ``(p, d)`` so tuple order is omega
#: order; the accessor flips back to the documented ``(d, p)``.)
Frontier = tuple[tuple[int, int], ...]


class SymbolicPaths:
    """All-points longest paths over one SCC with symbolic initiation
    interval, computed once and evaluated cheaply per candidate ``s``.

    The constructor computes only :attr:`recurrence_bound` (exact, via the
    galloping Bellman-Ford search); the Pareto frontier table is built on
    the first :meth:`frontier`/:meth:`dense` call.  Queries are valid for
    ``s >= s_min = max(1, recurrence_bound)``.

    The frontier table and the dense matrices :meth:`dense` returns are
    flat (``n * n`` cells, row stride :attr:`n`) — callers index with
    ``matrix[src_local * n + dst_local]``.
    """

    def __init__(
        self,
        nodes: Sequence[DepNode],
        edges: Sequence[DepEdge],
    ) -> None:
        self.nodes = list(nodes)
        self.edges = list(edges)
        n = len(self.nodes)
        self.n = n
        self.local = {node.index: i for i, node in enumerate(self.nodes)}
        self._local_edges = _local_edges(self.nodes, edges)
        self.recurrence_bound = self._search_recurrence_bound()
        self.s_min = max(1, self.recurrence_bound)
        self._sizes: Optional[list[int]] = None
        self._cp: list[int] = []
        self._cd: list[int] = []
        self._multi: dict[int, list[tuple[int, int]]] = {}
        self._csr: Optional[tuple[list[int], list[int], list[int]]] = None

    # -- the recurrence bound -------------------------------------------------

    def _search_recurrence_bound(self) -> int:
        """Exact ``max(ceil(d(c) / p(c)))`` over dependence cycles.

        An integer ``s`` is *feasible* iff no cycle has positive weight
        under ``d - s*p`` — monotone in ``s``, since every ``p`` is
        nonnegative.  One probe is a Bellman-Ford sweep from an implicit
        all-zero super-source: without a positive cycle the longest walks
        are simple and converge within ``n`` rounds (detected by a
        no-change round); a strict improvement in round ``n + 1`` implies
        a walk that beats every shorter one and therefore contains a
        positive cycle.

        Instead of bisecting blindly, each failed probe *extracts* the
        offending cycle from the Bellman-Ford parent pointers (Lawler's
        ratio search): its exact ratio ``ceil(D / O)`` is a valid lower
        bound on the answer, and it strictly exceeds the probed ``s``
        (the cycle was positive there, so ``D / O > s``), so the search
        jumps straight to a witnessed candidate and typically lands in
        one or two probes where a bisection pays a logarithm.  The first
        probe is seeded with the best self-edge ratio, the answer
        outright for components whose critical recurrence is a self
        loop.

        ``ub = sum(max(d, 0))`` caps the climb: any cycle with
        ``O >= 1`` has ``D <= ub <= ub * O``, so a cycle still positive
        at ``ub`` must have ``O = 0`` — the infeasible-outright case
        (also raised directly when an extracted cycle has ``O = 0`` with
        positive delay).
        """
        edges = self._local_edges
        lo = 0
        ub = 0
        for src, dst, delay, omega in edges:
            if delay > 0:
                ub += delay
            if src == dst and delay > 0:
                if omega == 0:
                    raise CyclicDependenceError(_ZERO_OMEGA_CYCLE)
                b = -(-delay // omega)
                if b > lo:
                    lo = b
        if not edges:
            return 0
        while True:
            cycle = self._positive_cycle_at(lo)
            if cycle is None:
                return lo
            if lo >= ub:
                raise CyclicDependenceError(_ZERO_OMEGA_CYCLE)
            total_delay, total_omega = cycle
            if total_omega > 0:
                cand = -(-total_delay // total_omega)
                lo = cand if cand > lo else lo + 1
            elif total_delay > 0:
                raise CyclicDependenceError(_ZERO_OMEGA_CYCLE)
            else:
                lo += 1  # defensive: infeasibility alone proves >= lo + 1
            if lo > ub:
                lo = ub

    def _positive_cycle_at(self, s: int) -> Optional[tuple[int, int]]:
        """One Bellman-Ford probe at interval ``s``: ``None`` when no
        cycle is positive under ``d - s*p``, else the ``(sum d, sum p)``
        of a witness cycle walked out of the parent pointers (standard
        negative-cycle recovery, sign-flipped: a round-``n + 1``
        improvement means the parent graph contains a cycle, and every
        parent-graph cycle is positive)."""
        edges = self._local_edges
        n = self.n
        dist = [0] * n
        parent: list[Optional[tuple[int, int, int, int]]] = [None] * n
        hot = -1
        for _ in range(n + 1):
            changed = False
            for edge in edges:
                src, dst, delay, omega = edge
                w = dist[src] + delay - s * omega
                if w > dist[dst]:
                    dist[dst] = w
                    parent[dst] = edge
                    hot = dst
                    changed = True
            if not changed:
                return None
        # Walk n parent steps from the last-improved node to guarantee
        # landing on the cycle, then one lap to sum it up.
        v = hot
        for _ in range(n):
            v = parent[v][0]
        total_delay = 0
        total_omega = 0
        u = v
        while True:
            src, _dst, delay, omega = parent[u]
            total_delay += delay
            total_omega += omega
            u = src
            if u == v:
                return total_delay, total_omega

    # -- the Pareto frontier table --------------------------------------------

    def _build_table(self) -> None:
        """The symbolic all-points closure, built once on first query.

        Pairs are pruned with the value rule at the *final* bound
        ``S = s_min`` from the very first
        insertion — the bound is already exact, so every extra wrap of a
        cycle is dominated on sight and no re-pruning pass is needed; the
        zero-omega-positive-cycle case was rejected by the bound search
        before this runs.  Path iteration differences are additionally
        capped at ``n * max_omega``, the most any simple path can
        accumulate.

        Hot layout: in the finished closure the overwhelming majority of
        cells hold exactly one pair, so cells live in flat parallel
        arrays — ``cp``/``cd`` hold the single pair of cell ``i*n + j``
        and ``cv`` its value ``d - S*p`` — with ``sizes`` 0/1/2+
        discriminating empty, scalar, and the rare multi-pair cells
        spilled to sorted ``(p, d)`` lists in ``multi``.  The
        scalar x scalar -> scalar relaxation (the hot case of the
        Floyd-Warshall pass) is then pure integer adds and compares with
        no tuple traffic — values are additive, ``v = v_ik + v_kj``.

        Inserting into a multi-pair cell bisects for the new pair's omega.
        Survivors are strictly increasing in value at ``S`` along that
        order, so the only possible dominator of a new pair is its
        immediate predecessor, and the pairs it dominates form a
        contiguous run from its insertion point.
        """
        n = self.n
        local_edges = self._local_edges
        max_omega = 0
        for _src, _dst, _delay, omega in local_edges:
            if omega > max_omega:
                max_omega = omega
        p_cap = n * max_omega
        bound = self.s_min
        nn = n * n
        sizes = [0] * nn
        cp = [0] * nn
        cd = [0] * nn
        cv = [0] * nn
        multi: dict[int, list[tuple[int, int]]] = {}
        bisect = bisect_left

        def insert(idx: int, p: int, d: int) -> None:
            sz = sizes[idx]
            if sz == 0:
                cp[idx] = p
                cd[idx] = d
                cv[idx] = d - bound * p
                sizes[idx] = 1
                return
            v = d - bound * p
            if sz == 1:
                p0 = cp[idx]
                v0 = cv[idx]
                if p >= p0:
                    if v <= v0:
                        return
                    if p == p0:
                        cd[idx] = d
                        cv[idx] = v
                    else:
                        multi[idx] = [(p0, cd[idx]), (p, d)]
                        sizes[idx] = 2
                elif v >= v0:
                    cp[idx] = p
                    cd[idx] = d
                    cv[idx] = v
                else:
                    multi[idx] = [(p, d), (p0, cd[idx])]
                    sizes[idx] = 2
                return
            cell = multi[idx]
            ins = bisect(cell, (p,))
            dom = ins + 1 if ins < sz and cell[ins][0] == p else ins
            if dom > 0:
                pd, dd = cell[dom - 1]
                if dd - bound * pd >= v:
                    return
            run = ins
            while run < sz:
                pr, dr = cell[run]
                if dr - bound * pr > v:
                    break
                run += 1
            cell[ins:run] = [(p, d)]
            if len(cell) == 1:
                cp[idx] = p
                cd[idx] = d
                cv[idx] = v
                sizes[idx] = 1
                del multi[idx]
            else:
                sizes[idx] = len(cell)

        for src, dst, delay, omega in local_edges:
            if omega <= p_cap:
                insert(src * n + dst, omega, delay)
        for k_mid in range(n):
            k_base = k_mid * n
            # Nonempty columns of row k are fixed for this k: inserts into
            # row k can only happen at i == k, into cells that are already
            # nonempty (the relaxation needs the cell itself as one half).
            cols = [kj for kj in range(k_base, k_base + n) if sizes[kj]]
            if not cols:
                continue
            for i in range(n):
                ik = i * n + k_mid
                sz_ik = sizes[ik]
                if not sz_ik:
                    continue
                delta = i * n - k_base
                if sz_ik == 1:
                    # Scalar left operand, read once: later updates to
                    # (i, k) in this k iteration only describe walks that
                    # revisit k, which Floyd-Warshall never needs.
                    p_ik = cp[ik]
                    d_ik = cd[ik]
                    v_ik = cv[ik]
                    for kj in cols:
                        ij = kj + delta
                        if sizes[kj] == 1:
                            p = p_ik + cp[kj]
                            if p > p_cap:
                                continue
                            # The hot body: both operands and the target
                            # scalar, values additive at the shared bound.
                            sz = sizes[ij]
                            if sz == 1:
                                v = v_ik + cv[kj]
                                p0 = cp[ij]
                                if p >= p0:
                                    if v <= cv[ij]:
                                        continue
                                    d = d_ik + cd[kj]
                                    if p == p0:
                                        cd[ij] = d
                                        cv[ij] = v
                                    else:
                                        multi[ij] = [(p0, cd[ij]), (p, d)]
                                        sizes[ij] = 2
                                elif v >= cv[ij]:
                                    cp[ij] = p
                                    cd[ij] = d_ik + cd[kj]
                                    cv[ij] = v
                                else:
                                    multi[ij] = [
                                        (p, d_ik + cd[kj]),
                                        (p0, cd[ij]),
                                    ]
                                    sizes[ij] = 2
                            elif sz == 0:
                                cp[ij] = p
                                cd[ij] = d_ik + cd[kj]
                                cv[ij] = v_ik + cv[kj]
                                sizes[ij] = 1
                            else:
                                insert(ij, p, d_ik + cd[kj])
                        else:
                            right = multi[kj]
                            if ij == kj:  # i == k: cell is its own operand
                                right = list(right)
                            for p2, d2 in right:
                                p = p_ik + p2
                                if p <= p_cap:
                                    insert(ij, p, d_ik + d2)
                else:
                    left_src = multi[ik]
                    for kj in cols:
                        ij = kj + delta
                        if sizes[kj] == 1:
                            right = ((cp[kj], cd[kj]),)
                        else:
                            right = multi[kj]
                            if ij == kj:
                                right = list(right)
                        left = list(left_src) if ij == ik else left_src
                        for p1, d1 in left:
                            for p2, d2 in right:
                                p = p1 + p2
                                if p <= p_cap:
                                    insert(ij, p, d1 + d2)
        self._sizes = sizes
        self._cp = cp
        self._cd = cd
        self._multi = multi

    def frontier(self, src: DepNode, dst: DepNode) -> Frontier:
        if self._sizes is None:
            self._build_table()
        idx = self.local[src.index] * self.n + self.local[dst.index]
        sz = self._sizes[idx]
        if sz == 0:
            return ()
        if sz == 1:
            return ((self._cd[idx], self._cp[idx]),)
        return tuple((d, p) for p, d in self._multi[idx])

    def _build_csr(self) -> tuple[list[int], list[int], list[int]]:
        """Flatten the frontier table into parallel pair arrays plus cell
        starts, so dense materialization is one linear sweep with no
        per-cell list dispatch.  Built lazily, like the table itself:
        closures constructed only for their recurrence bound pay for
        neither."""
        if self._sizes is None:
            self._build_table()
        nn = self.n * self.n
        sizes = self._sizes
        starts = [0] * (nn + 1)
        ds: list[int] = []
        ps: list[int] = []
        total = 0
        for c in range(nn):
            sz = sizes[c]
            if sz == 1:
                total += 1
                ps.append(self._cp[c])
                ds.append(self._cd[c])
            elif sz:
                total += sz
                for p, d in self._multi[c]:
                    ps.append(p)
                    ds.append(d)
            starts[c + 1] = total
        self._csr = (starts, ds, ps)
        return self._csr

    def dense(self, s: int) -> list[float]:
        """The flat longest-path matrix at initiation interval ``s`` in
        local node order (row stride :attr:`n`), freshly materialized.

        The scheduler calls this once per component per II attempt; its
        O(n^2) range computations are then flat array lookups instead of
        frontier scans.
        """
        if s < self.s_min:
            raise ValueError(f"s={s} below the symbolic validity bound {self.s_min}")
        csr = self._csr
        if csr is None:
            csr = self._build_csr()
        starts, ds, ps = csr
        n2 = self.n * self.n
        out = [NEG_INF] * n2
        k = 0
        for c in range(n2):
            end = starts[c + 1]
            if k == end:
                continue
            best = ds[k] - s * ps[k]
            k += 1
            while k < end:
                v = ds[k] - s * ps[k]
                k += 1
                if v > best:
                    best = v
            out[c] = best
        return out
