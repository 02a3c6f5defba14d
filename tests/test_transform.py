"""Unit tests for repro.logic.transform."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic.gates import GateType
from repro.logic.generators import alu_slice, ripple_carry_adder
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.logic.transform import (collapse_buffers,
                                   decompose_to_primitives, gate_cover,
                                   node_cover, propagate_constants,
                                   to_sop_network)
from repro.sim.functional import verify_equivalence


class TestGateCover:
    @pytest.mark.parametrize("gtype,n", [
        (GateType.AND, 2), (GateType.AND, 3), (GateType.OR, 2),
        (GateType.NAND, 2), (GateType.NOR, 3), (GateType.XOR, 2),
        (GateType.XOR, 3), (GateType.XNOR, 2), (GateType.NOT, 1),
        (GateType.BUF, 1), (GateType.MUX, 3), (GateType.MAJ, 3),
    ])
    def test_cover_matches_gate(self, gtype, n):
        from repro.logic.gates import eval_gate

        cover = gate_cover(gtype, n)
        for m in range(1 << n):
            ins = [(m >> i) & 1 for i in range(n)]
            assert cover.evaluate(m) == bool(eval_gate(gtype, ins, 1))

    def test_const_covers(self):
        assert gate_cover(GateType.CONST0, 0).is_empty()
        assert gate_cover(GateType.CONST1, 0).is_tautology()


class TestToSop:
    def test_equivalent(self):
        net = ripple_carry_adder(3)
        sop = to_sop_network(net)
        assert verify_equivalence(net, sop, 256)
        assert all(n.kind != "gate" or not n.fanins
                   for n in sop.nodes.values() if not n.is_source())


class TestDecompose:
    def test_adder(self):
        net = ripple_carry_adder(3)
        prim = decompose_to_primitives(net)
        assert verify_equivalence(net, prim, 256)
        for node in prim.nodes.values():
            if node.is_source():
                continue
            assert node.kind == "gate"
            assert len(node.fanins) <= 2

    def test_alu_with_const(self):
        net = alu_slice(3)
        prim = decompose_to_primitives(net)
        assert verify_equivalence(net, prim, 256)


class TestCollapseBuffers:
    def test_removes_buffers(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("buf", GateType.BUF, ["a"])
        net.add_gate("g", GateType.AND, ["buf", "b"])
        net.set_output("g")
        removed = collapse_buffers(net)
        assert removed == 1
        assert net.nodes["g"].fanins == ["a", "b"]

    def test_keeps_output_buffers(self):
        net = Network()
        net.add_input("a")
        net.add_gate("o", GateType.BUF, ["a"])
        net.set_output("o")
        assert collapse_buffers(net) == 0
        assert "o" in net.nodes

    def test_buffer_chain(self):
        net = Network()
        net.add_input("a")
        net.add_gate("b1", GateType.BUF, ["a"])
        net.add_gate("b2", GateType.BUF, ["b1"])
        net.add_gate("g", GateType.NOT, ["b2"])
        net.set_output("g")
        assert collapse_buffers(net) == 2
        assert net.nodes["g"].fanins == ["a"]

    def test_chains_outputs_and_latch_pins_match_fixpoint_loop(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("b1", GateType.BUF, ["a"])
        net.add_gate("b2", GateType.BUF, ["b1"])
        net.add_gate("po", GateType.BUF, ["b2"])     # drives a PO: kept
        net.add_gate("b3", GateType.BUF, ["po"])
        net.add_gate("en", GateType.BUF, ["b"])
        net.add_latch("b3", "q", enable="en")
        net.add_gate("g", GateType.AND, ["b2", "q"])
        net.set_outputs(["po", "g"])
        ref = net.copy()
        assert collapse_buffers(net) == fixpoint_collapse_buffers(ref) == 4
        assert structure(net) == structure(ref)
        assert net.nodes["po"].fanins == ["a"]
        assert net.nodes["g"].fanins == ["a", "q"]
        assert (net.latches[0].data, net.latches[0].enable) == ("po", "b")

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6), num_gates=st.integers(1, 25),
           num_latches=st.integers(0, 3))
    def test_matches_fixpoint_loop(self, seed, num_gates, num_latches):
        net = buffered_circuit(seed, num_gates, num_latches)
        ref = net.copy()
        assert collapse_buffers(net) == fixpoint_collapse_buffers(ref)
        assert structure(net) == structure(ref)


def fixpoint_collapse_buffers(net):
    """collapse_buffers as a fixpoint of one-buffer rewrites."""
    removed = 0
    changed = True
    while changed:
        changed = False
        for name in list(net.nodes):
            node = net.nodes.get(name)
            if node is None or node.kind != "gate" or \
                    node.gtype is not GateType.BUF:
                continue
            if name in net.outputs:
                continue
            net.replace_everywhere(name, node.fanins[0])
            net.remove_node(name)
            removed += 1
            changed = True
    return removed


def buffered_circuit(seed, num_gates, num_latches):
    """Random gates, about a third of them buffers (so chains form),
    with latches reading random gates on data and enable and outputs
    that include buffers."""
    rng = random.Random(seed)
    net = Network("buffered")
    pool = net.add_inputs(["i0", "i1", "i2"])
    gates = [f"g{k}" for k in range(num_gates)]
    for k in range(num_latches):
        enable = rng.choice(gates + [None])
        net.add_latch(rng.choice(gates), f"q{k}", enable=enable)
        pool.append(f"q{k}")
    for name in gates:
        if rng.random() < 0.4:
            net.add_gate(name, GateType.BUF, [rng.choice(pool)])
        else:
            net.add_gate(name, rng.choice([GateType.AND, GateType.XOR]),
                         [rng.choice(pool), rng.choice(pool)])
        pool.append(name)
    net.set_outputs(rng.sample(gates, max(1, num_gates // 4)))
    return net


def structure(net):
    return ([(name, node.kind, node.gtype, node.fanins)
             for name, node in net.nodes.items()],
            [(l.data, l.output, l.init, l.enable) for l in net.latches],
            net.outputs)


class TestPropagateConstants:
    def test_and_with_zero(self):
        net = Network()
        net.add_input("a")
        net.add_gate("z", GateType.CONST0, [])
        net.add_gate("g", GateType.AND, ["a", "z"])
        net.set_output("g")
        changed = propagate_constants(net)
        assert changed >= 1
        assert net.nodes["g"].gtype is GateType.CONST0
        assert net.evaluate({"a": 1})["g"] == 0

    def test_and_with_one(self):
        net = Network()
        net.add_input("a")
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("g", GateType.AND, ["a", "one"])
        net.set_output("g")
        propagate_constants(net)
        assert net.evaluate({"a": 1})["g"] == 1
        assert net.evaluate({"a": 0})["g"] == 0
        # g should now depend on a alone
        assert net.nodes["g"].fanins == ["a"]

    def test_cascading(self):
        net = Network()
        net.add_input("a")
        net.add_gate("one", GateType.CONST1, [])
        net.add_gate("x", GateType.NOT, ["one"])      # -> const0
        net.add_gate("g", GateType.OR, ["a", "x"])    # -> a
        net.set_output("g")
        propagate_constants(net)
        assert net.evaluate({"a": 0})["g"] == 0
        assert net.evaluate({"a": 1})["g"] == 1


class TestNodeCover:
    def test_on_source_raises(self):
        net = Network()
        net.add_input("a")
        with pytest.raises(ValueError):
            node_cover(net.nodes["a"])
