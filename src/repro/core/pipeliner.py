"""The iterative software-pipelining driver (Lam 1988, section 2.2).

Computes the lower bound on the initiation interval, then searches for the
smallest schedulable interval.  The paper argues for a *linear* search:
schedulability is not monotonic in the interval, and on Warp the lower bound
itself is usually schedulable, so starting there and counting up finds the
optimum cheaply.  A binary search (the FPS-164 approach) is provided for the
ablation study.

Preprocessing runs exactly once per graph: a single pass buckets every edge
as internal to its strongly connected component or as a cross-component
edge, one symbolic longest-path closure is built per nontrivial component
(carrying the component's exact recurrence bound, so the MII computation
shares the closure instead of re-deriving the bound numerically), and all
s-independent attempt state — singleton clusters and schedulable items, the
node-to-item map, cross-component edge metadata — is hoisted out of the
per-interval loop.

Per candidate interval: strongly connected components are scheduled
individually, condensed into single vertices carrying their aggregate
resource usage, and the resulting acyclic graph is scheduled by modulo list
scheduling.  The machine's loop-back branch reservation is pre-placed in the
last modulo slot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

from repro.obs import trace as obs
from repro.core.acyclic import ItemEdge, SchedItem, modulo_schedule_dag
from repro.core.cyclic import Cluster, _zero_omega_order, schedule_component
from repro.core.mii import MiiReport, resource_mii
from repro.core.mrt import ModuloReservationTable
from repro.core.schedule import KernelSchedule, SchedulingFailure
from repro.deps.graph import DepEdge, DepGraph, DepNode
from repro.deps.paths import SymbolicPaths
from repro.deps.scc import condensation_order
from repro.machine.description import MachineDescription


#: Interval search orders accepted by :class:`PipelinerPolicy`.
SEARCH_POLICIES = ("linear", "binary")


@dataclass(frozen=True)
class PipelinerPolicy:
    """Search and applicability policy.

    search
        ``"linear"`` (the paper's choice) or ``"binary"`` (FPS-164 style,
        for the ablation).
    max_ii
        Hard cap on the initiation interval search; ``None`` derives a cap
        from the graph (sum of node spans plus slack).
    """

    search: str = "linear"
    max_ii: Optional[int] = None

    def __post_init__(self) -> None:
        if self.search not in SEARCH_POLICIES:
            raise ValueError(f"unknown search policy {self.search!r}")


@dataclass
class PipelineResult:
    """A kernel schedule plus the component structure needed downstream.

    ``exact_search`` is the exact backend's terminal search status
    (``optimal``, ``infeasible``, ``unknown`` or ``too_large``; see
    :mod:`repro.exact.backend`); it stays empty under the heuristic.
    """

    schedule: KernelSchedule
    clusters: list[Cluster]
    exact_search: str = ""

    @property
    def ii(self) -> int:
        return self.schedule.ii


@dataclass
class PreparedGraph:
    """Everything about one dependence graph that does not depend on the
    candidate initiation interval, computed once before the search.

    graph / mii
        The graph and its lower bounds; the recurrence side is the maximum
        of the closures' fused per-component bounds.
    components / paths / orders
        Condensation-ordered components and, aligned by slot, each
        nontrivial component's symbolic closure and zero-omega topological
        order (``None`` for singletons without self-recurrences — the
        order, like the closure, is interval-independent, so attempts
        share one).
    item_of
        node index -> condensed item slot.
    base_items / base_clusters
        Per slot, the fixed :class:`SchedItem` / :class:`Cluster` for
        trivial components (their reservation and span never change);
        ``None`` where an attempt must schedule the component.
    cross_edges
        Cross-component edges in graph order, as ``(edge, src_item,
        dst_item, delta)``; ``delta`` is the precomputed member-offset
        correction when both endpoints are singletons (always 0), or
        ``None`` when it depends on the attempt's component schedules.
    """

    graph: DepGraph
    mii: MiiReport
    components: list[list[DepNode]]
    paths: list[Optional[SymbolicPaths]]
    orders: list[Optional[list[DepNode]]]
    item_of: dict[int, int]
    base_items: list[Optional[SchedItem]]
    base_clusters: list[Optional[Cluster]]
    cross_edges: list[tuple[DepEdge, int, int, Optional[int]]]

    @property
    def scc_count(self) -> int:
        return sum(1 for paths in self.paths if paths is not None)


@runtime_checkable
class SchedulerBackend(Protocol):
    """What the compiler needs from a modulo scheduler.

    Implementations: :class:`ModuloScheduler` (Lam's heuristic, the
    default) and :class:`repro.exact.ExactScheduler` (SAT-based exact
    minimum-II search).  ``name`` identifies the backend in reports and
    CLI flags; :meth:`schedule` raises
    :class:`~repro.core.schedule.SchedulingFailure` on a decline.
    """

    name: str
    machine: MachineDescription
    policy: PipelinerPolicy

    def schedule(self, graph: DepGraph) -> PipelineResult:
        ...


#: Registered backend names accepted by :func:`create_scheduler` and the
#: ``--scheduler-backend`` CLI option.
SCHEDULER_BACKENDS = ("heuristic", "exact")

#: The exact backend's default effort budget: solver conflicts per
#: interval before a probe answers ``unknown``.
EXACT_MAX_CONFLICTS = 20_000


def create_scheduler(
    machine: MachineDescription,
    policy: PipelinerPolicy = PipelinerPolicy(),
    *,
    backend: str = "heuristic",
    max_conflicts: int = EXACT_MAX_CONFLICTS,
) -> SchedulerBackend:
    """Build a scheduler backend by name.

    The exact backend is imported lazily: :mod:`repro.exact` depends on
    this module, and the heuristic path should not pay for the import.
    ``max_conflicts`` is the exact backend's conflict budget per interval;
    the heuristic ignores it.
    """
    if backend == "heuristic":
        return ModuloScheduler(machine, policy)
    if backend == "exact":
        from repro.exact import ExactScheduler

        return ExactScheduler(machine, policy, max_conflicts=max_conflicts)
    raise ValueError(
        f"unknown scheduler backend {backend!r};"
        f" expected one of {SCHEDULER_BACKENDS}"
    )


class ModuloScheduler:
    """Software-pipelines dependence graphs for one machine.

    This is the heuristic backend: Lam's SCC-condensation list scheduler
    driven by the iterative interval search.
    """

    name = "heuristic"

    def __init__(
        self,
        machine: MachineDescription,
        policy: PipelinerPolicy = PipelinerPolicy(),
    ) -> None:
        self.machine = machine
        self.policy = policy

    # -- public API ----------------------------------------------------------

    def prepare(self, graph: DepGraph) -> PreparedGraph:
        """The graph's interval-independent state and its MII bounds.

        The result is the one per-graph analysis: :meth:`search` and the
        exact backend's SAT encoder read the same SCC condensation and
        symbolic closures, whose frontier tables are built once.
        """
        with obs.phase("mii"):
            return self._prepare_components(graph, condensation_order(graph))

    def schedule(self, graph: DepGraph) -> PipelineResult:
        """Find the smallest schedulable initiation interval.

        Raises :class:`SchedulingFailure` if none is found below the cap.
        """
        return self.search(self.prepare(graph))

    def search(self, prepared: PreparedGraph) -> PipelineResult:
        """The interval search over an already prepared graph."""
        graph, mii = prepared.graph, prepared.mii
        obs.count("sccs", prepared.scc_count)
        max_ii = self.policy.max_ii or self.default_cap(graph)

        attempts: list[int] = []
        if self.policy.search == "linear":
            for s in range(mii.mii, max_ii + 1):
                attempts.append(s)
                obs.count("ii_attempts")
                with obs.phase("ii_attempt", ii=s) as meta:
                    result = self._try_interval(prepared, s, attempts)
                    meta["schedulable"] = result is not None
                if result is not None:
                    return result
        else:
            result = self._binary_search(prepared, max_ii, attempts)
            if result is not None:
                return result
        raise SchedulingFailure(
            f"no schedule found for initiation intervals {mii.mii}..{max_ii}",
            attempts,
        )

    # -- preprocessing -------------------------------------------------------

    def _prepare_components(
        self,
        graph: DepGraph,
        components: list[list[DepNode]],
    ) -> PreparedGraph:
        """One pass over the edges buckets them by component; one symbolic
        closure per nontrivial component (the paper's preprocessing step,
        now also yielding the recurrence bound); everything an attempt does
        not have to recompute is materialized here.  The resource bound
        charges the machine's loop-back branch once per iteration."""
        item_of = {
            node.index: slot
            for slot, component in enumerate(components)
            for node in component
        }
        internal: list[list[DepEdge]] = [[] for _ in components]
        cross: list[tuple[DepEdge, int, int, Optional[int]]] = []
        trivial: list[bool] = [len(c) == 1 for c in components]
        for edge in graph.edges:
            src_item = item_of[edge.src.index]
            dst_item = item_of[edge.dst.index]
            if src_item == dst_item:
                internal[src_item].append(edge)
            else:
                cross.append((edge, src_item, dst_item, None))

        paths: list[Optional[SymbolicPaths]] = []
        orders: list[Optional[list[DepNode]]] = []
        base_items: list[Optional[SchedItem]] = []
        base_clusters: list[Optional[Cluster]] = []
        recurrence = 0
        for slot, component in enumerate(components):
            if trivial[slot] and not internal[slot]:
                node = component[0]
                paths.append(None)
                orders.append(None)
                base_items.append(SchedItem(slot, node.reservation, node.length))
                base_clusters.append(
                    Cluster([node], {node.index: 0}, node.reservation)
                )
                continue
            closure = SymbolicPaths(component, internal[slot])
            recurrence = max(recurrence, closure.recurrence_bound)
            paths.append(closure)
            orders.append(_zero_omega_order(component, internal[slot]))
            base_items.append(None)
            base_clusters.append(None)

        # A cross edge between two fixed singletons never changes: both
        # member offsets are 0, so the item-edge delay is the edge delay.
        cross = [
            (edge, src_item, dst_item,
             0 if base_items[src_item] is not None
             and base_items[dst_item] is not None else None)
            for edge, src_item, dst_item, _ in cross
        ]
        branch = self.machine.branch_reservation
        extra = {res: branch.total_use(res) for res in branch.resources()}
        resource, critical = resource_mii(graph.nodes, self.machine, extra)
        return PreparedGraph(
            graph=graph,
            mii=MiiReport(
                resource=resource,
                recurrence=recurrence,
                critical_resource=critical,
            ),
            components=components,
            paths=paths,
            orders=orders,
            item_of=item_of,
            base_items=base_items,
            base_clusters=base_clusters,
            cross_edges=cross,
        )

    def default_cap(self, graph: DepGraph) -> int:
        """The derived interval-search ceiling used when the policy sets no
        ``max_ii``: an interval the acyclic list scheduler can always meet,
        plus slack."""
        span = sum(node.length for node in graph.nodes)
        worst_delay = sum(max(0, e.delay) for e in graph.edges)
        return max(4, span + worst_delay) + 8

    # -- one attempt ---------------------------------------------------------

    def _try_interval(
        self,
        prepared: PreparedGraph,
        s: int,
        attempts: list[int],
    ) -> Optional[PipelineResult]:
        clusters: list[Cluster] = list(prepared.base_clusters)
        items: list[SchedItem] = list(prepared.base_items)

        for slot, paths in enumerate(prepared.paths):
            if paths is None:
                continue
            cluster = schedule_component(
                prepared.components[slot], paths, s, self.machine,
                prepared.orders[slot],
            )
            if cluster is None:
                obs.count("backtracks")
                return None
            items[slot] = SchedItem(slot, cluster.reservation, cluster.span)
            clusters[slot] = cluster

        item_edges = []
        for edge, src_item, dst_item, delta in prepared.cross_edges:
            if delta is None:
                delta = (
                    clusters[src_item].offset_of(edge.src)
                    - clusters[dst_item].offset_of(edge.dst)
                )
            item_edges.append(
                ItemEdge(src_item, dst_item, edge.delay + delta, edge.omega)
            )

        mrt = ModuloReservationTable(self.machine, s)
        mrt.place(self.machine.branch_reservation, s - 1)
        item_times = modulo_schedule_dag(items, item_edges, mrt)
        if item_times is None:
            obs.count("backtracks")
            return None

        times: dict[int, int] = {}
        for item_index, cluster in enumerate(clusters):
            base = item_times[item_index]
            for node in cluster.members:
                times[node.index] = base + cluster.offset_of(node)
        schedule = KernelSchedule(
            prepared.graph, self.machine, s, times, prepared.mii,
            list(attempts),
        )
        return PipelineResult(schedule, clusters)

    # -- binary search (FPS-164 style, for the ablation) ----------------------

    def _binary_search(
        self,
        prepared: PreparedGraph,
        max_ii: int,
        attempts: list[int],
    ) -> Optional[PipelineResult]:
        lo, hi = prepared.mii.mii, max_ii
        best: Optional[PipelineResult] = None
        while lo <= hi:
            mid = (lo + hi) // 2
            attempts.append(mid)
            obs.count("ii_attempts")
            with obs.phase("ii_attempt", ii=mid) as meta:
                result = self._try_interval(prepared, mid, attempts)
                meta["schedulable"] = result is not None
            if result is not None:
                best = result
                hi = mid - 1
            else:
                lo = mid + 1
        return best
