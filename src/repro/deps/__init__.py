"""Dependence analysis.

Builds the scheduling graph of Lam 1988, section 2.1: nodes are minimally
indivisible operations (or hierarchically reduced constructs), and each edge
carries a *minimum iteration difference* ``omega`` (the paper's *p*) and a
*delay* ``d``.  A legal schedule sigma with initiation interval ``s``
satisfies ``sigma(v) - sigma(u) >= d - s * omega`` for every edge ``u -> v``.
"""

from repro.deps.graph import DefInfo, DepEdge, DepGraph, DepNode, MemAccess, UseInfo
from repro.deps.scc import strongly_connected_components, condensation_order
from repro.deps.paths import CyclicDependenceError, SymbolicPaths
from repro.deps.build import (
    DependenceOptions,
    build_loop_graph,
    build_block_graph,
)

__all__ = [
    "DepNode",
    "DepEdge",
    "DepGraph",
    "DefInfo",
    "UseInfo",
    "MemAccess",
    "strongly_connected_components",
    "condensation_order",
    "SymbolicPaths",
    "CyclicDependenceError",
    "DependenceOptions",
    "build_loop_graph",
    "build_block_graph",
]
