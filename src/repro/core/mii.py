"""Lower bounds on the initiation interval (Lam 1988, section 2.2).

Two bounds are combined:

* *Resource bound*: if an iteration is initiated every ``s`` cycles, the
  resources available in ``s`` cycles must cover one iteration's total
  requirement, so ``s >= ceil(uses(r) / units(r))`` for every resource
  ``r``.
* *Recurrence bound*: every dependence cycle ``c`` forces
  ``d(c) - s*p(c) <= 0``, so ``s >= max over cycles of ceil(d(c)/p(c))``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.deps.graph import DepEdge, DepGraph, DepNode
from repro.deps.paths import SymbolicPaths
from repro.deps.scc import strongly_connected_components
from repro.machine.description import MachineDescription


def component_internal_edges(
    graph: DepGraph, components: Sequence[Sequence[DepNode]]
) -> list[list[DepEdge]]:
    """Bucket the graph's edges by owning component in one O(V + E) pass
    (replacing the per-component O(V * E) edge filter): slot ``i`` holds the
    edges internal to ``components[i]``; cross-component edges are skipped.
    """
    component_of = {
        node.index: slot
        for slot, component in enumerate(components)
        for node in component
    }
    internal: list[list[DepEdge]] = [[] for _ in components]
    for edge in graph.edges:
        slot = component_of[edge.src.index]
        if component_of[edge.dst.index] == slot:
            internal[slot].append(edge)
    return internal


@dataclass(frozen=True)
class MiiReport:
    """Both bounds and their maximum."""

    resource: int
    recurrence: int
    critical_resource: str = ""

    @property
    def mii(self) -> int:
        return max(1, self.resource, self.recurrence)


def resource_mii(
    nodes: Sequence[DepNode],
    machine: MachineDescription,
    extra_uses: Mapping[str, int] | None = None,
) -> tuple[int, str]:
    """Resource-constrained bound and the binding (most heavily used,
    relative to its multiplicity) resource.

    ``extra_uses`` accounts for per-iteration overhead outside the
    dependence graph — in particular the loop-back branch, which holds the
    machine's :attr:`~repro.machine.MachineDescription.branch_reservation`
    once per initiated iteration.
    """
    totals: dict[str, int] = dict(extra_uses or {})
    for node in nodes:
        for resource in node.reservation.resources():
            totals[resource] = (
                totals.get(resource, 0) + node.reservation.total_use(resource)
            )
    bound, critical = 1, ""
    for resource, used in sorted(totals.items()):
        need = math.ceil(used / machine.units(resource))
        if need > bound or (need == bound and not critical):
            bound, critical = need, resource
    return bound, critical


def recurrence_mii(graph: DepGraph) -> int:
    """Recurrence-constrained bound, from per-SCC minimum-ratio cycles.

    Each component's bound comes from the Lawler ratio search that
    :class:`repro.deps.paths.SymbolicPaths` runs when it is built; the
    scheduler shares those closures instead of calling this, so the
    standalone function builds and discards them.

    Raises :class:`repro.deps.CyclicDependenceError` when a
    zero-iteration-difference cycle has positive delay.
    """
    bound = 0
    components = strongly_connected_components(graph)
    for component, local in zip(
        components, component_internal_edges(graph, components)
    ):
        if not local:
            continue
        bound = max(bound, SymbolicPaths(component, local).recurrence_bound)
    return bound


def compute_mii(
    graph: DepGraph,
    machine: MachineDescription,
    extra_uses: Mapping[str, int] | None = None,
) -> MiiReport:
    res, critical = resource_mii(graph.nodes, machine, extra_uses)
    rec = recurrence_mii(graph)
    return MiiReport(resource=res, recurrence=rec, critical_resource=critical)
