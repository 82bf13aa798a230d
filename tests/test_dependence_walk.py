"""One dependence walk per innermost loop feeds both of its graphs.

:func:`repro.core.reduction.build_reduced_loop_graph` connects the modulo
``graph`` and the unpipelined ``block_graph`` from one walk over the
loop's nodes.  Each must hold exactly the edges, in the same order, that
a walk of its own gives (``reference.two_walk_loop_graphs``).  A compile
that does not pipeline connects only ``block_graph``.
"""

import pytest

import repro.core.compile as compile_mod
import repro.core.reduction as reduction
from repro.audit.generate import random_program
from repro.batch.driver import compile_one
from repro.core.compile import CompilerPolicy
from repro.machine import WARP
from repro.workloads import (
    LIVERMORE_KERNELS,
    USER_PROGRAMS,
    generate_suite,
)

from reference import two_walk_loop_graphs


def _ninety_eight():
    return (
        [(f"livermore{k.number}", k.source)
         for k in LIVERMORE_KERNELS.values()]
        + [(p.name, p.source) for p in USER_PROGRAMS.values()]
        + [(p.name, p.source) for p in generate_suite(1988, 72)]
    )


SETS = {
    "98 programs": _ninety_eight,
    "generate_suite(1, 288)": lambda: [
        (p.name, p.source) for p in generate_suite(1, 288)
    ],
    "fuzz": lambda: [
        (p.name, p.source) for p in map(random_program, range(60))
    ],
}


def _edges(graph):
    return [
        (e.src.index, e.dst.index, e.delay, e.omega, e.kind)
        for e in graph.edges
    ]


def _loop_graphs(monkeypatch, items, policy=CompilerPolicy()):
    """Every LoopGraph the compiler builds while compiling ``items``."""
    built = []
    original = compile_mod.build_reduced_loop_graph

    def recording(*args, **kwargs):
        lg = original(*args, **kwargs)
        built.append(lg)
        return lg

    monkeypatch.setattr(compile_mod, "build_reduced_loop_graph", recording)
    for name, source in items:
        result = compile_one(name, source, WARP, policy)
        assert result.ok, result.error
    return built


@pytest.mark.parametrize("set_name", sorted(SETS))
def test_both_graphs_match_their_own_walks(monkeypatch, set_name):
    graphs = _loop_graphs(monkeypatch, SETS[set_name]())
    assert graphs
    for lg in graphs:
        graph, block_graph = two_walk_loop_graphs(lg)
        assert _edges(lg.graph) == _edges(graph)
        assert _edges(lg.block_graph) == _edges(block_graph)
        if lg.options.expanded_regs:
            assert lg.block_graph is not lg.graph
        else:
            assert lg.block_graph is lg.graph


def test_one_walk_per_innermost_loop(monkeypatch):
    walks = []
    original = reduction.connect_loop_edges

    def counting(*args, **kwargs):
        walks.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(reduction, "connect_loop_edges", counting)
    graphs = _loop_graphs(monkeypatch, _ninety_eight())
    assert len(walks) == len(graphs) == 101


def test_no_modulo_graph_without_pipelining(monkeypatch):
    graphs = _loop_graphs(
        monkeypatch, _ninety_eight(), CompilerPolicy(pipeline=False)
    )
    assert len(graphs) == 101
    for lg in graphs:
        assert lg.graph.edges == []
        assert lg.block_graph is not lg.graph
        assert lg.block_graph.nodes == lg.graph.nodes
        _, block_graph = two_walk_loop_graphs(lg)
        assert _edges(lg.block_graph) == _edges(block_graph)
