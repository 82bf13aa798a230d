"""Lower bounds on the initiation interval (Lam 1988, section 2.2).

Two bounds are combined:

* *Resource bound*: if an iteration is initiated every ``s`` cycles, the
  resources available in ``s`` cycles must cover one iteration's total
  requirement, so ``s >= ceil(uses(r) / units(r))`` for every resource
  ``r``.
* *Recurrence bound*: every dependence cycle ``c`` forces
  ``d(c) - s*p(c) <= 0``, so ``s >= max over cycles of ceil(d(c)/p(c))``.
  Each strongly connected component's symbolic closure
  (:class:`repro.deps.paths.SymbolicPaths`) carries its exact bound, so
  :meth:`repro.core.pipeliner.ModuloScheduler.prepare` reads the graph's
  off the closures it builds anyway.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.deps.graph import DepNode
from repro.machine.description import MachineDescription


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
