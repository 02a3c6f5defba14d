"""Structural BDD variable order and the cone-local don't-care pass.

Every manager :func:`network_bdds` creates is ordered by
:func:`structural_order`.  The don't-care pass computes observability
don't-cares over the node's fanout cone only, and each node's don't-care
set from one fanin relation.  All three are exact.  The reference below
is the pass as it was before any of them: a manager ordered by
primary-input declaration order, an ODC that rebuilds every node of the
network for every candidate, and a don't-care set made of the
controllability don't-cares plus the image of the ODC, each from its own
fanin relation.  The pass must reproduce it with ``==`` covers and
``==`` results.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import circuit
from repro.bdd.bdd import BDD
from repro.bdd.circuit import bdd_to_cover, network_bdds, structural_order
from repro.logic import generators as gen
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.logic.transform import (collapse_to_cover, node_cover,
                                   to_sop_network)
from repro.opt.logic import dontcare
from repro.opt.logic.dontcare import (controllability_dont_cares,
                                      dontcare_power_optimization,
                                      observability_dont_cares)
from repro.opt.seq.precompute import (combinational_precompute,
                                      disable_probability,
                                      precomputed_comparator)
from repro.power.activity import signal_probability_exact
from repro.verify import combinational_equivalent

SETTINGS = settings(max_examples=25, deadline=None)


# -- reference: PI-order manager, full-network ODC rebuild ---------------

def pi_order(net):
    return list(net.inputs) + [latch.output for latch in net.latches]


def ref_observability_dont_cares(net, node_name, funcs=None):
    if funcs is None:
        funcs = network_bdds(net, BDD(pi_order(net)))
    bdd = next(iter(funcs.values())).bdd
    shadow = f"__odc_{node_name}"
    y = bdd.var(shadow)
    alt = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if name == node_name:
            alt[name] = y
            continue
        if node.is_source():
            alt[name] = funcs[name]
            continue
        fanin_funcs = [alt[fi] for fi in node.fanins]
        acc = bdd.false
        for cube in node_cover(node):
            term = bdd.true
            for var, phase in cube.literals():
                lit = fanin_funcs[var]
                term = term & (lit if phase else ~lit)
            acc = acc | term
        alt[name] = acc
    odc = bdd.true
    for out in net.outputs:
        f1 = alt[out].restrict({shadow: 1})
        f0 = alt[out].restrict({shadow: 0})
        odc = odc & ~(f1 ^ f0)
    return odc


def ref_dont_cares(net, node_name, funcs, odc):
    """CDC image ∪ ODC image, each over its own fanin relation."""
    node = net.node(node_name)
    bdd = odc.bdd
    sources = [n.name for n in net.nodes.values() if n.is_source()]

    def relation(prefix):
        aux = [f"{prefix}_{node_name}_{i}" for i in range(len(node.fanins))]
        rel = bdd.true
        for y, fi in zip(aux, node.fanins):
            rel = rel & ~(bdd.var(y) ^ funcs[fi])
        return aux, rel

    aux, rel = relation("__cdc")
    dc = bdd_to_cover(~rel.exists(sources), aux)
    if not odc.is_false:
        aux, rel = relation("__odcimg")
        img = rel.and_exists(odc, sources)
        # Fanin combos reachable *only* under the ODC condition.
        reach_all = rel.exists(sources)
        non_odc = rel.and_exists(~odc, sources)
        dc = dc.union(bdd_to_cover(reach_all & img & ~non_odc, aux))
    return dc


def ref_dontcare_pass(net, **kwargs):
    with mock.patch.object(circuit, "structural_order", pi_order), \
            mock.patch.object(dontcare, "observability_dont_cares",
                              ref_observability_dont_cares), \
            mock.patch.object(dontcare, "_dont_cares", ref_dont_cares):
        return dontcare_power_optimization(net, **kwargs)


def covers(net):
    return {name: (list(node.fanins),
                   node.cover.to_strings() if node.cover is not None else None)
            for name, node in net.nodes.items()}


def assert_pass_matches(net, **kwargs):
    ref_net, new_net = net.copy(), net.copy()
    ref = ref_dontcare_pass(ref_net, **kwargs)
    new = dontcare_power_optimization(new_net, **kwargs)
    assert new == ref
    assert covers(new_net) == covers(ref_net)


# -- circuits -------------------------------------------------------------

GATES = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
         GateType.XOR, GateType.XNOR]


def latched_circuit(seed, num_inputs, num_gates, num_latches):
    """Random two-input gates over PIs and latch outputs; latch data
    (and one enable) pins read random gates, so cones cross latches."""
    rng = random.Random(seed)
    net = Network("latched")
    pool = net.add_inputs([f"i{k}" for k in range(num_inputs)])
    gates = [f"g{k}" for k in range(num_gates)]
    for k in range(num_latches):
        enable = rng.choice(gates) if k == 0 else None
        net.add_latch(rng.choice(gates), f"q{k}", enable=enable)
        pool.append(f"q{k}")
    for name in gates:
        if rng.random() < 0.05:
            net.add_gate(name, GateType.CONST1, [])
        else:
            net.add_gate(name, rng.choice(GATES),
                         [rng.choice(pool), rng.choice(pool)])
        pool.append(name)
    net.set_outputs(rng.sample(gates, max(1, num_gates // 4)))
    return net


circuit_args = dict(seed=st.integers(0, 10 ** 6),
                    num_inputs=st.integers(2, 7),
                    num_gates=st.integers(1, 30))

FIXED = [("rca6", lambda: gen.ripple_carry_adder(6)),
         ("cmp6", lambda: gen.comparator(6)),
         ("mult3", lambda: gen.array_multiplier(3))]


# -- structural_order -----------------------------------------------------

class TestStructuralOrder:
    def test_interleaves_adder_operands(self):
        net = gen.ripple_carry_adder(4)
        assert structural_order(net) == ["a0", "b0", "cin", "a1", "b1",
                                         "a2", "b2", "a3", "b3"]

    def test_unreachable_inputs_follow_in_declaration_order(self):
        net = Network("t")
        net.add_inputs(["u", "a", "v", "b"])
        net.add_gate("y", GateType.AND, ["b", "a"])
        net.set_output("y")
        assert structural_order(net) == ["b", "a", "u", "v"]

    def test_latch_only_sources(self):
        net = Network("t")
        net.add_inputs(["x", "d", "e"])
        net.add_latch("dn", "q")           # read by the output cone
        net.add_latch("x", "r")            # reached from no pin at all
        net.add_gate("dn", GateType.NOT, ["d"])
        net.add_gate("y", GateType.OR, ["q", "x"])
        net.set_output("y")
        # outputs first (q, x), then latch data pins (d), then the rest
        assert structural_order(net) == ["q", "x", "d", "e", "r"]

    @SETTINGS
    @given(num_latches=st.integers(0, 4), **circuit_args)
    def test_permutation_of_sources(self, seed, num_inputs, num_gates,
                                    num_latches):
        net = latched_circuit(seed, num_inputs, num_gates, num_latches)
        order = structural_order(net)
        assert len(order) == len(set(order))
        assert sorted(order) == sorted(pi_order(net))

    @pytest.mark.parametrize("make, ceiling", [
        (lambda: gen.ripple_carry_adder(16), 3000),
        (lambda: gen.comparator(16), 300)])
    def test_node_count_ceiling(self, make, ceiling):
        net = make()
        manager = next(iter(network_bdds(net).values())).bdd
        assert manager.num_nodes() <= ceiling

    def test_default_network_bdds_order_is_structural(self):
        # collapse_to_cover enumerates BDD paths, so its covers depend on
        # the variable order of the manager network_bdds creates.
        net = gen.array_multiplier(3)
        manager = next(iter(network_bdds(net).values())).bdd
        assert manager.var_names == structural_order(net)
        assert manager.var_names != pi_order(net)
        assert [len(collapse_to_cover(net, out).cubes)
                for out in net.outputs] == [1, 4, 9, 10, 8, 3]

    def test_exact_equivalence_on_wide_comparator(self):
        net = gen.comparator(16)
        assert combinational_equivalent(net, net.copy())
        broken = net.copy()
        out = broken.outputs[0]
        broken.add_gate("__flip", GateType.NOT, [out])
        broken.outputs[0] = "__flip"
        assert not combinational_equivalent(net, broken)


# -- wide adders and comparators stay under the node budget --------------

class TestWideCircuitsUnderBudget:
    """Figure 1 and the exact estimators at n = 16, exponential in
    declaration order."""

    def test_precomputed_comparator(self):
        assert precomputed_comparator(16).disable_probability == 0.5

    def test_combinational_precompute(self):
        result = combinational_precompute(gen.comparator(16),
                                          ["c15", "d15"])
        assert result.disable_probability == 0.5

    def test_disable_probability(self):
        assert disable_probability(gen.comparator(16),
                                   ["c15", "d15"]) == 0.5

    def test_signal_probability_exact(self):
        net = gen.ripple_carry_adder(16)
        assert set(signal_probability_exact(net)) == set(net.nodes)


# -- cone-local ODC == full rebuild ---------------------------------------

def assert_odc_matches(net):
    funcs = network_bdds(net)
    for name, node in net.nodes.items():
        if node.is_source():
            continue
        assert observability_dont_cares(net, name, funcs) == \
            ref_observability_dont_cares(net, name, funcs)


class TestConeLocalODC:
    @pytest.mark.parametrize("label, make", FIXED)
    def test_fixed(self, label, make):
        assert_odc_matches(make())

    @SETTINGS
    @given(**circuit_args)
    def test_random_logic(self, seed, num_inputs, num_gates):
        assert_odc_matches(gen.random_logic(num_inputs, num_gates,
                                            seed=seed))

    @SETTINGS
    @given(num_latches=st.integers(1, 4), **circuit_args)
    def test_latched(self, seed, num_inputs, num_gates, num_latches):
        assert_odc_matches(latched_circuit(seed, num_inputs, num_gates,
                                           num_latches))

    @pytest.mark.parametrize("label, make", FIXED)
    def test_adds_no_variable(self, label, make):
        net = make()
        funcs = network_bdds(net)
        bdd = next(iter(funcs.values())).bdd
        before = list(bdd.var_names)
        for name, node in net.nodes.items():
            if not node.is_source():
                observability_dont_cares(net, name, funcs)
        assert bdd.var_names == before


# -- don't-care sets == exhaustive simulation ------------------------------

def exhaustive_values(net):
    count = 1 << len(net.inputs)
    words = {x: sum(1 << m for m in range(count) if m >> k & 1)
             for k, x in enumerate(net.inputs)}
    return net.evaluate_words(words, (1 << count) - 1), count


class TestDontCaresAgainstSimulation:
    @SETTINGS
    @given(**circuit_args)
    def test_cdc_is_the_unreachable_fanin_space(self, seed, num_inputs,
                                                 num_gates):
        net = to_sop_network(gen.random_logic(num_inputs, num_gates,
                                              seed=seed))
        values, count = exhaustive_values(net)
        mask = (1 << count) - 1
        for name in net.topo_order():
            node = net.nodes[name]
            if node.is_source():
                continue
            cdc = controllability_dont_cares(net, name)
            fanin_words = [values[fi] for fi in node.fanins]
            reachable = {tuple(w >> m & 1 for w in fanin_words)
                         for m in range(count)}
            assert cdc.evaluate_words(fanin_words, mask) == 0
            assert len(cdc.minterms()) == \
                (1 << len(node.fanins)) - len(reachable)

    @SETTINGS
    @given(**circuit_args)
    def test_odc_is_where_no_output_sees_a_flip(self, seed, num_inputs,
                                                num_gates):
        net = to_sop_network(gen.random_logic(num_inputs, num_gates,
                                              seed=seed))
        values, count = exhaustive_values(net)
        for name in net.topo_order():
            node = net.nodes[name]
            if node.is_source():
                continue
            odc = observability_dont_cares(net, name)
            flipped = net.copy()
            flipped.nodes[name].cover = node.cover.complement()
            flipped_values, _ = exhaustive_values(flipped)
            seen = 0
            for out in net.outputs:
                seen |= values[out] ^ flipped_values[out]
            for m in range(count):
                point = {x: m >> k & 1 for k, x in enumerate(net.inputs)}
                assert odc.evaluate(point) == (not seen >> m & 1)


# -- one fanin relation == CDC image ∪ ODC image ----------------------------

def assert_dont_cares_match(net):
    net = to_sop_network(net)
    funcs = network_bdds(net)
    for name, node in net.nodes.items():
        if node.is_source() or not node.fanins:
            continue
        odc = observability_dont_cares(net, name, funcs)
        assert dontcare._dont_cares(net, name, funcs, odc).is_equivalent(
            ref_dont_cares(net, name, funcs, odc))


class TestOneFaninRelation:
    @pytest.mark.parametrize("label, make", FIXED)
    def test_fixed(self, label, make):
        assert_dont_cares_match(make())

    @SETTINGS
    @given(**circuit_args)
    def test_random_logic(self, seed, num_inputs, num_gates):
        assert_dont_cares_match(gen.random_logic(num_inputs, num_gates,
                                                 seed=seed))

    @SETTINGS
    @given(num_latches=st.integers(1, 4), **circuit_args)
    def test_latched(self, seed, num_inputs, num_gates, num_latches):
        assert_dont_cares_match(latched_circuit(seed, num_inputs,
                                                num_gates, num_latches))

    @pytest.mark.parametrize("label, make", FIXED)
    def test_cdc_is_the_false_odc_case(self, label, make):
        net = to_sop_network(make())
        funcs = network_bdds(net)
        bdd = next(iter(funcs.values())).bdd
        found = 0
        for name, node in net.nodes.items():
            if node.is_source() or not node.fanins:
                continue
            cdc = controllability_dont_cares(net, name, funcs)
            assert cdc.to_strings() == \
                ref_dont_cares(net, name, funcs, bdd.false).to_strings()
            found += not cdc.is_empty()
        assert found


# -- whole pass == reference ------------------------------------------------

class TestDontCarePassMatchesReference:
    @pytest.mark.parametrize("label, make", FIXED)
    def test_fixed(self, label, make):
        assert_pass_matches(make())

    @SETTINGS
    @given(**circuit_args)
    def test_random_logic(self, seed, num_inputs, num_gates):
        assert_pass_matches(gen.random_logic(num_inputs, num_gates,
                                             seed=seed), seed=seed % 7)

    @SETTINGS
    @given(num_latches=st.integers(1, 3), **circuit_args)
    def test_latched(self, seed, num_inputs, num_gates, num_latches):
        assert_pass_matches(latched_circuit(seed, num_inputs, num_gates,
                                            num_latches))
