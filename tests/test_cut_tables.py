"""Cut truth tables of the technology mapper against cone evaluation.

``_enumerate_cuts`` builds each cut's table from its fanin cuts'
tables.  The oracle below evaluates the cut's cone from scratch, as the
mapper once did for every cut: the leaves are free variables and every
other node of the cone is computed from its fanins.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.logic import generators as g
from repro.logic.gates import GateType, eval_gate
from repro.logic.netlist import Network
from repro.logic.transform import collapse_buffers, \
    decompose_to_primitives, propagate_constants
from repro.opt.logic.mapping import _enumerate_cuts, _leaf_words

DECOMPOSITIONS = ("balanced", "power")


def cut_function(net, root, cut):
    """Truth table of ``root`` over the cut leaves, or None if the cone
    reads signals outside the cut."""
    n = len(cut)
    mask = (1 << (1 << n)) - 1
    memo = dict(zip(cut, _leaf_words(n)))

    def value(name):
        if name in memo:
            return memo[name]
        node = net.nodes[name]
        if node.is_source():
            return None
        ins = [value(fi) for fi in node.fanins]
        if None in ins:
            return None
        if node.kind == "gate":
            memo[name] = eval_gate(node.gtype, ins, mask)
        else:
            memo[name] = node.cover.evaluate_words(ins, mask)
        return memo[name]

    return value(root)


def subject_graph(net, decomposition):
    """The mapper's subject graph of ``net``."""
    subject = decompose_to_primitives(net, decomposition=decomposition)
    collapse_buffers(subject)
    propagate_constants(subject)
    collapse_buffers(subject)
    return subject


def assert_tables_match(subject):
    for root, cuts in _enumerate_cuts(subject, 4).items():
        for cut, table in cuts:
            assert table == cut_function(subject, root, cut), (root, cut)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10 ** 6), num_inputs=st.integers(2, 10),
       num_gates=st.integers(1, 80),
       decomposition=st.sampled_from(DECOMPOSITIONS))
def test_random_logic(seed, num_inputs, num_gates, decomposition):
    net = g.random_logic(num_inputs, num_gates, seed=seed)
    assert_tables_match(subject_graph(net, decomposition))


@pytest.mark.parametrize("decomposition", DECOMPOSITIONS)
@pytest.mark.parametrize("make", [lambda: g.array_multiplier(4),
                                  lambda: g.carry_lookahead_adder(8)],
                         ids=["mult4", "cla8"])
def test_arithmetic(make, decomposition):
    assert_tables_match(subject_graph(make(), decomposition))


def test_leaf_inside_the_other_fanins_cone():
    """n = a & ~a.  In the cut (a, x, y) of n, leaf a lies inside the
    cone of b's cut (x, y), so the cone reads a as a free variable and
    n is 0; composing the fanin tables would give a & ~(x & y)."""
    net = Network("reconvergent")
    net.add_inputs(["x", "y"])
    net.add_gate("a", GateType.AND, ["x", "y"])
    net.add_gate("b", GateType.NOT, ["a"])
    net.add_gate("n", GateType.AND, ["a", "b"])
    net.set_output("n")
    assert dict(_enumerate_cuts(net, 4)["n"])[("a", "x", "y")] == 0
    assert_tables_match(net)


@pytest.mark.parametrize("decomposition", DECOMPOSITIONS)
def test_constant_folded_nodes(decomposition):
    """Folding a constant leaves SOP nodes in the subject graph."""
    net = Network("consts")
    net.add_inputs(["x", "y", "z"])
    net.add_gate("one", GateType.CONST1, [])
    net.add_gate("zero", GateType.CONST0, [])
    net.add_gate("p", GateType.AND, ["x", "one", "y"])
    net.add_gate("q", GateType.OR, ["p", "zero", "z"])
    net.add_gate("r", GateType.XOR, ["q", "x"])
    net.set_output("r")
    subject = subject_graph(net, decomposition)
    assert any(node.kind == "sop" for node in subject.nodes.values())
    assert_tables_match(subject)
