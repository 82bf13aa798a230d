"""Hierarchical reduction of conditionals (Lam 1988, section 3)."""

import re

import pytest

import repro.core.reduction as reduction
from repro.core.compile import compile_program
from repro.core.display import disassemble
from repro.core.reduction import ReducedIf, build_reduced_loop_graph, reduce_if
from repro.deps.build import DependenceOptions, connect_loop_edges
from repro.deps.graph import DefInfo, DepGraph, UseInfo
from repro.frontend import parse_program
from repro.ir import FLOAT, IfStmt, Imm, Opcode, Operation, ProgramBuilder, Reg
from repro.machine import WARP


def _simple_if(then_flops=1, else_flops=2):
    cond = Reg("c")
    x = Reg("x", FLOAT)
    then_body = [
        Operation(Opcode.FADD, Reg(f"t{i}", FLOAT), (x, Imm(1.0)))
        for i in range(then_flops)
    ]
    else_body = [
        Operation(Opcode.FADD, Reg(f"e{i}", FLOAT), (x, Imm(2.0)))
        for i in range(else_flops)
    ]
    return IfStmt(cond, then_body, else_body)


class TestReduceIf:
    def test_length_is_longest_arm_plus_dispatch(self):
        node = reduce_if(_simple_if(1, 3), WARP, index=0)
        # Three serial fadds on one unit: arm length 3; dispatch adds 1.
        assert node.payload.length == 4

    def test_reservation_is_union_max(self):
        node = reduce_if(_simple_if(1, 1), WARP, index=0, serialize=False)
        # Both arms use the adder once at the same offset: union keeps 1.
        assert node.reservation.amount_at(1, "fadd") == 1

    def test_serialized_if_saturates_sequencer(self):
        node = reduce_if(_simple_if(1, 3), WARP, index=0, serialize=True)
        for time in range(node.payload.length):
            assert node.reservation.amount_at(time, "seq") == WARP.units("seq")

    def test_dispatch_only_when_not_serialized(self):
        node = reduce_if(_simple_if(1, 3), WARP, index=0, serialize=False)
        assert node.reservation.amount_at(0, "seq") == 1
        assert node.reservation.amount_at(2, "seq") == 0

    def test_condition_is_external_use(self):
        node = reduce_if(_simple_if(), WARP, index=0)
        assert UseInfo(Reg("c"), 0) in node.uses

    def test_arm_uses_visible_with_offsets(self):
        node = reduce_if(_simple_if(), WARP, index=0)
        x_uses = [u for u in node.uses if u.reg == Reg("x", FLOAT)]
        assert x_uses and all(u.read_offset >= 1 for u in x_uses)

    def test_arm_defs_merged_with_write_bounds(self):
        stmt = _simple_if(1, 1)
        # Make both arms define the same register at different depths.
        shared = Reg("r", FLOAT)
        stmt.then_body.append(Operation(Opcode.FMOV, shared, (Imm(1.0),)))
        stmt.else_body.insert(0, Operation(Opcode.FMOV, shared, (Imm(2.0),)))
        node = reduce_if(stmt, WARP, index=0)
        info = node.def_of(shared)
        assert info is not None
        assert info.earliest_write <= info.write_latency

    def test_internal_flow_not_exported(self):
        cond = Reg("c")
        local = Reg("tmp", FLOAT)
        stmt = IfStmt(
            cond,
            [
                Operation(Opcode.FMOV, local, (Imm(1.0),)),
                Operation(Opcode.FADD, Reg("out", FLOAT), (local, Imm(1.0))),
            ],
            [],
        )
        node = reduce_if(stmt, WARP, index=0)
        assert all(use.reg != local for use in node.uses)

    def test_use_before_internal_def_is_exported(self):
        cond = Reg("c")
        reg = Reg("v", FLOAT)
        stmt = IfStmt(
            cond,
            [
                Operation(Opcode.FADD, Reg("o", FLOAT), (reg, Imm(1.0))),
                Operation(Opcode.FMOV, reg, (Imm(0.0),)),
            ],
            [],
        )
        node = reduce_if(stmt, WARP, index=0)
        assert any(use.reg == reg for use in node.uses)

    def test_memory_accesses_collected_with_offsets(self):
        cond = Reg("c")
        stmt = IfStmt(
            cond,
            [Operation(Opcode.STORE, None, (Reg("i"), Imm(1.0)), array="a")],
            [Operation(Opcode.LOAD, Reg("x", FLOAT), (Reg("i"),), array="a")],
        )
        node = reduce_if(stmt, WARP, index=0)
        kinds = {acc.kind for acc in node.mem}
        assert kinds == {"load", "store"}
        assert all(acc.time_offset >= 1 for acc in node.mem)

    def test_nested_ifs_reduce_recursively(self):
        inner = _simple_if(1, 1)
        outer = IfStmt(Reg("c2"), [inner], [])
        node = reduce_if(outer, WARP, index=0)
        assert isinstance(node.payload, ReducedIf)
        sub = node.payload.then_nodes[0][0]
        assert isinstance(sub.payload, ReducedIf)

    def test_empty_arms_are_legal(self):
        node = reduce_if(IfStmt(Reg("c"), [], []), WARP, index=0)
        assert node.payload.length == 1  # just the dispatch


class TestLoopGraphWithConditionals:
    def test_conditional_loop_builds_flat_graph(self):
        pb = ProgramBuilder("p")
        pb.array("a", 64)
        with pb.loop("i", 0, 9) as body:
            x = body.load("a", body.var)
            cond = body.fgt(x, 0.0)
            with body.if_(cond) as (then, other):
                then.store("a", then.var, then.fmul(x, 2.0))
                other.store("a", other.var, other.fadd(x, 1.0))
        lg = build_reduced_loop_graph(pb.finish().body[-1], WARP)
        assert lg.has_conditionals
        # load, fgt, if, increment
        assert len(lg.graph.nodes) == 4

    def test_cond_flows_into_if_node(self):
        pb = ProgramBuilder("p")
        pb.array("a", 64)
        with pb.loop("i", 0, 9) as body:
            x = body.load("a", body.var)
            cond = body.fgt(x, 0.0)
            with body.if_(cond) as (then, other):
                then.store("a", then.var, 1.0)
        lg = build_reduced_loop_graph(pb.finish().body[-1], WARP)
        if_node = next(
            n for n in lg.graph.nodes if isinstance(n.payload, ReducedIf)
        )
        flows = [
            e for e in lg.graph.edges
            if e.dst is if_node and e.kind == "flow" and e.omega == 0
        ]
        assert any(e.delay == WARP.latency("fgt") for e in flows)

    def test_nested_loop_in_body_rejected(self):
        pb = ProgramBuilder("p")
        pb.array("a", 64)
        with pb.loop("i", 0, 3) as bi:
            with bi.loop("j", 0, 3) as bj:
                bj.store("a", bj.var, 1.0)
        with pytest.raises(TypeError, match="innermost"):
            build_reduced_loop_graph(pb.finish().body[-1], WARP)


def _conditional_loop():
    pb = ProgramBuilder("p")
    pb.array("a", 64)
    with pb.loop("i", 0, 9) as body:
        x = body.load("a", body.var)
        cond = body.fgt(x, 0.0)
        with body.if_(cond) as (then, other):
            then.store("a", then.var, then.fmul(x, 2.0))
            other.store("a", other.var, other.fadd(x, 1.0))
    return pb.finish().body[-1]


def _edges(graph):
    return [(e.src, e.dst, e.delay, e.omega, e.kind) for e in graph.edges]


#: One conditional loop whose 50 iterations leave one to peel at compile
#: time (II 14, two stages, unrolled three times on WARP).
PEELED_IF_SOURCE = """
program v;
var a: array[64] of float;
begin
  for i := 0 to 49 do
    if a[i] > 0.0 then
      a[i] := a[i] * 2.0
    else
      a[i] := a[i] + 1.0;
end.
"""


class TestOneReductionPerLoop:
    def test_block_graph_shares_the_nodes(self):
        lg = build_reduced_loop_graph(_conditional_loop(), WARP)
        assert lg.options.expanded_regs
        assert lg.block_graph is not lg.graph
        assert len(lg.block_graph.nodes) == len(lg.graph.nodes)
        assert all(
            a is b for a, b in zip(lg.block_graph.nodes, lg.graph.nodes)
        )

    def test_block_graph_keeps_every_register_edge(self):
        loop = _conditional_loop()
        options = DependenceOptions(independent_arrays=frozenset({"a"}))
        lg = build_reduced_loop_graph(loop, WARP, options)
        fresh = DepGraph(lg.graph.nodes)
        connect_loop_edges(fresh, loop, options)
        assert _edges(lg.block_graph) == _edges(fresh)
        assert len(lg.block_graph.edges) > len(lg.graph.edges)

    def test_block_graph_is_graph_when_nothing_is_expanded(self):
        # The body also writes the induction variable, so no register is
        # defined exactly once per iteration.
        pb = ProgramBuilder("p")
        pb.array("a", 64)
        with pb.loop("i", 0, 9) as body:
            body.store("a", body.var, 1.0)
            body.op(Opcode.ADD, body.var, Imm(0), dest=body.var)
        lg = build_reduced_loop_graph(pb.finish().body[-1], WARP)
        assert lg.options.expanded_regs == frozenset()
        assert lg.block_graph is lg.graph

    def test_peeled_conditional_is_reduced_once(self, monkeypatch):
        calls = []

        def counting_reduce_if(stmt, *args, **kwargs):
            calls.append(stmt)
            return reduce_if(stmt, *args, **kwargs)

        monkeypatch.setattr(reduction, "reduce_if", counting_reduce_if)
        program, _ = parse_program(PEELED_IF_SOURCE)
        compiled = compile_program(program, WARP)
        (loop,) = compiled.loops
        assert loop.pipelined and loop.peeled == 1
        assert len(calls) == 1
        # The peel copy and the kernel are guarded by the same uid.
        text = disassemble(compiled.code)
        peel, _, pipelined = text.partition("pipelined loop")
        guards = re.compile(r"\b(\d+):(?:then|else)")
        assert set(guards.findall(peel)) == {"1"}
        assert set(guards.findall(pipelined)) == {"1"}
