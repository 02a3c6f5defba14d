"""The network load table, the capacitance model built on it, and
incremental sizing against a full-recompute reference.

The reference below is the sizing engine as it was before the load
table existed: every load is a scan over all nodes, every candidate
move re-runs full static timing, and a move is accepted on two full
switched-capacitance sums.  The incremental engine must reproduce it
exactly (``==`` on floats), so every sum here keeps the same order:
readers in node order, ``pin * size * times`` per reader.  A mapped
node is priced by its cell: ``input_cap`` per pin it presents,
``output_cap`` as its own capacitance.
"""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.library.cells import generic_library
from repro.logic.blif import read_blif
from repro.logic.gates import GateType
from repro.logic.netlist import Network
from repro.opt.circuit.sizing import (DRIVE_PER_LOAD, INTRINSIC_DELAY,
                                      arrival_times, critical_path_delay,
                                      size_for_power, slacks,
                                      switched_capacitance)
from repro.opt.logic.mapping import tech_map
from repro.power.model import PowerParameters, load_capacitance, \
    node_capacitance, power_report

SETTINGS = settings(max_examples=30, deadline=None)
PARAMS = PowerParameters()


# -- full-recompute reference ------------------------------------------

def ref_load_cap(net, name, sizes, params):
    load = 0.0
    for node in net.nodes.values():
        times = node.fanins.count(name)
        if times:
            cell = node.attrs.get("cell")
            pin = params.pin_cap_units if cell is None else cell.input_cap
            load += pin * sizes.get(node.name, 1.0) * times
    if name in net.outputs:
        load += params.output_load_units
    for latch in net.latches:
        if latch.data == name or latch.enable == name:
            load += params.pin_cap_units
    return load


def ref_gate_delay(net, name, sizes, params):
    if net.nodes[name].is_source():
        return 0.0
    load = ref_load_cap(net, name, sizes, params)
    return INTRINSIC_DELAY + DRIVE_PER_LOAD * load / sizes.get(name, 1.0)


def ref_arrival_times(net, sizes, params):
    arr = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            arr[name] = 0.0
        else:
            d = ref_gate_delay(net, name, sizes, params)
            arr[name] = d + max((arr[fi] for fi in node.fanins),
                                default=0.0)
    return arr


def ref_critical_path_delay(net, sizes, params):
    arr = ref_arrival_times(net, sizes, params)
    sinks = list(net.outputs) + [l.data for l in net.latches]
    return max((arr[s] for s in sinks), default=0.0)


def ref_slacks(net, sizes, target, params):
    arr = ref_arrival_times(net, sizes, params)
    req = {name: float("inf") for name in net.nodes}
    for s in set(net.outputs) | {l.data for l in net.latches}:
        req[s] = min(req[s], target)
    for name in reversed(net.topo_order()):
        node = net.nodes[name]
        if node.is_source():
            continue
        d = ref_gate_delay(net, name, sizes, params)
        for fi in node.fanins:
            req[fi] = min(req[fi], req[name] - d)
    return {name: req[name] - arr[name] for name in net.nodes}


def ref_own_cap(node, size, params):
    cell = node.attrs.get("cell")
    if cell is not None:
        return cell.output_cap * size
    return params.self_cap_per_transistor * node.num_transistors() * size


def ref_switched_capacitance(net, sizes, activity, params):
    total = 0.0
    for name, node in net.nodes.items():
        self_cap = ref_own_cap(node, sizes.get(name, 1.0), params)
        cap = self_cap + ref_load_cap(net, name, sizes, params)
        total += cap * activity.get(name, 0.0)
    return total


def ref_size_for_power(net, activity, delay_target=None,
                       allowed_sizes=(1.0, 2.0, 4.0), params=PARAMS):
    """All-minimum sizing when it meets the target, else the greedy
    downsizer with full re-timing per candidate.  ``walk_moves`` counts
    the walk's accepted moves (None when it is not entered)."""
    ordered = sorted(set(allowed_sizes))
    sizes = {name: float(ordered[-1])
             for name, node in net.nodes.items() if not node.is_source()}
    delay_before = ref_critical_path_delay(net, sizes, params)
    target = delay_target if delay_target is not None \
        else delay_before * 1.05
    power_before = ref_switched_capacitance(net, sizes, activity, params)
    ones = {name: float(ordered[0]) for name in sizes}
    walk_moves = None
    if ref_critical_path_delay(net, ones, params) <= target:
        sizes = ones
    else:
        walk_moves = 0
        improved = True
        while improved:
            improved = False
            slk = ref_slacks(net, sizes, target, params)
            candidates = sorted(
                (name for name, s in slk.items()
                 if s > 0 and name in sizes and sizes[name] > ordered[0]),
                key=lambda n: -slk[n])
            for name in candidates:
                trial = dict(sizes)
                trial[name] = float(
                    ordered[ordered.index(sizes[name]) - 1])
                if ref_critical_path_delay(net, trial, params) <= target:
                    before = ref_switched_capacitance(net, sizes, activity,
                                                      params)
                    after = ref_switched_capacitance(net, trial, activity,
                                                     params)
                    if after < before:
                        sizes = trial
                        walk_moves += 1
                        improved = True
                        break
    steps = sum(len(ordered) - 1 - ordered.index(s) for s in sizes.values())
    return {"sizes": sizes, "moves": steps, "walk_moves": walk_moves,
            "power_before": power_before,
            "power_after": ref_switched_capacitance(net, sizes, activity,
                                                    params),
            "delay_after": ref_critical_path_delay(net, sizes, params)}


def attr_sizes(net):
    return {n: float(node.attrs.get("size", 1.0))
            for n, node in net.nodes.items()}


def ref_node_capacitance(net, name, params=PARAMS):
    """``node_capacitance`` by scanning every node for readers."""
    sizes = attr_sizes(net)
    return ref_own_cap(net.nodes[name], sizes[name], params) + \
        ref_load_cap(net, name, sizes, params)


def ref_fanout_count(net, name):
    count = sum(node.fanins.count(name) for node in net.nodes.values())
    for latch in net.latches:
        count += int(latch.data == name) + int(latch.enable == name)
    return count + int(name in net.outputs)


# -- generated circuits ---------------------------------------------------

def build_circuit(seed, num_inputs, num_gates, num_latches=0,
                  repeat_fanins=False):
    """Random gate DAG.  Latch outputs are extra sources; each latch
    reads a gate on its data pin and, sometimes, one on its enable pin
    (occasionally the same gate).  With ``repeat_fanins`` some gates
    read one signal on two or three pins."""
    rng = random.Random(seed)
    net = Network(f"c{seed}")
    pool = net.add_inputs([f"i{k}" for k in range(num_inputs)])
    for k in range(num_latches):
        data = f"g{rng.randrange(num_gates)}"
        enable = rng.choice([None, data, f"g{rng.randrange(num_gates)}"])
        net.add_latch(data, f"q{k}", init=rng.randrange(2), enable=enable)
        pool.append(f"q{k}")
    two_in = [GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
              GateType.XOR, GateType.XNOR]
    for g in range(num_gates):
        a, b = rng.choice(pool), rng.choice(pool)
        if repeat_fanins and rng.random() < 0.3:
            fanins = [a, a] if rng.random() < 0.5 else [a, b, a]
            gtype = rng.choice([GateType.AND, GateType.OR, GateType.NAND])
        elif rng.random() < 0.15:
            fanins, gtype = [a], GateType.NOT
        else:
            fanins, gtype = [a, b], rng.choice(two_in)
        pool.append(net.add_gate(f"g{g}", gtype, fanins))
    readers = {fi for node in net.nodes.values() for fi in node.fanins}
    for name in pool[num_inputs:]:
        if name.startswith("g") and (name not in readers or
                                     rng.random() < 0.1):
            net.set_output(name)
    if not net.outputs:
        net.set_output(pool[-1])
    net.check()
    return net


def random_activity(net, seed):
    """Per-node activities in sixteenths, zeros included."""
    rng = random.Random(seed)
    return {name: rng.randrange(17) / 16 for name in net.nodes}


def mapped_circuit(seed, num_inputs, num_gates):
    net = build_circuit(seed, num_inputs, num_gates)
    mapped = tech_map(net, generic_library(), objective="power").mapped
    rng = random.Random(seed)
    for node in mapped.gate_nodes():
        node.attrs["size"] = rng.choice([1.0, 2.0, 4.0])
    return mapped


def assert_sizing_matches(net, activity, **kwargs):
    """The engine equals the reference; returns whether the reference
    walked (all-minimum missed the target)."""
    ref = ref_size_for_power(net, activity, **kwargs)
    res = size_for_power(net, activity, apply=False, **kwargs)
    assert res.sizes == ref["sizes"]
    assert res.moves == ref["moves"]
    if ref["walk_moves"] is not None:
        # On a walk, every accepted move is one one-step downsize.
        assert res.moves == ref["walk_moves"]
    assert res.power_before == ref["power_before"]
    assert res.power_after == ref["power_after"]
    assert res.delay_after == ref["delay_after"]
    return ref["walk_moves"] is not None


circuit_args = dict(seed=st.integers(0, 10 ** 6),
                    num_inputs=st.integers(2, 7),
                    num_gates=st.integers(1, 35))


# -- incremental sizing == full recompute --------------------------------

class TestSizingMatchesReference:
    @SETTINGS
    @given(**circuit_args)
    @example(seed=0, num_inputs=4, num_gates=28)    # walk strands gates
    def test_random_logic(self, seed, num_inputs, num_gates):
        from repro.logic.generators import random_logic

        net = random_logic(num_inputs, num_gates, seed=seed)
        assert_sizing_matches(net, random_activity(net, seed))

    @SETTINGS
    @given(**circuit_args)
    def test_mapped(self, seed, num_inputs, num_gates):
        net = mapped_circuit(seed, num_inputs, num_gates)
        assert_sizing_matches(net, random_activity(net, seed))

    @SETTINGS
    @given(num_latches=st.integers(1, 4), **circuit_args)
    def test_latches(self, seed, num_inputs, num_gates, num_latches):
        net = build_circuit(seed, num_inputs, num_gates, num_latches)
        assert_sizing_matches(net, random_activity(net, seed))

    @SETTINGS
    @given(**circuit_args)
    def test_repeated_fanins(self, seed, num_inputs, num_gates):
        net = build_circuit(seed, num_inputs, num_gates,
                            repeat_fanins=True)
        assert_sizing_matches(net, random_activity(net, seed))

    @SETTINGS
    @given(factor=st.floats(0.5, 0.99),
           allowed=st.sampled_from([(1.0, 2.0, 4.0), (0.5, 1.0, 3.0),
                                    (1.0, 1.5, 2.0, 3.0, 4.0)]),
           **circuit_args)
    def test_delay_target_and_sizes(self, seed, num_inputs, num_gates,
                                    factor, allowed):
        """Targets below the all-size-1 delay, which no all-minimum
        sizing meets (smallest sizes are at most 1): the walk runs."""
        net = build_circuit(seed, num_inputs, num_gates, seed % 3,
                            repeat_fanins=True)
        ones = {n: 1.0 for n in net.nodes}
        target = factor * ref_critical_path_delay(net, ones, PARAMS)
        assert assert_sizing_matches(net, random_activity(net, seed),
                                     delay_target=target,
                                     allowed_sizes=allowed)

    def test_flow_circuit(self):
        """A mapped multiplier, sized against a target below the
        all-minimum delay (the walk) and against the flow's own target,
        the all-minimum delay (no walk)."""
        from repro.logic.generators import array_multiplier

        net = tech_map(array_multiplier(3), generic_library(),
                       objective="power").mapped
        activity = random_activity(net, 3)
        ones = {n: 1.0 for n in net.nodes}
        delay = critical_path_delay(net, ones, PARAMS)
        for scale, walks in ((0.95, True), (1.0, False)):
            assert assert_sizing_matches(
                net, activity, delay_target=scale * delay) == walks

    @SETTINGS
    @given(num_latches=st.integers(0, 3), **circuit_args)
    def test_public_timing_functions(self, seed, num_inputs, num_gates,
                                     num_latches):
        net = build_circuit(seed, num_inputs, num_gates, num_latches,
                            repeat_fanins=True)
        rng = random.Random(seed)
        sizes = {n.name: rng.choice([1.0, 2.0, 4.0])
                 for n in net.gate_nodes()}
        activity = random_activity(net, seed)
        assert arrival_times(net, sizes, PARAMS) == \
            ref_arrival_times(net, sizes, PARAMS)
        assert critical_path_delay(net, sizes, PARAMS) == \
            ref_critical_path_delay(net, sizes, PARAMS)
        assert slacks(net, sizes, 7.5, PARAMS) == \
            ref_slacks(net, sizes, 7.5, PARAMS)
        assert switched_capacitance(net, sizes, activity, PARAMS) == \
            ref_switched_capacitance(net, sizes, activity, PARAMS)


# -- the all-minimum stop rule ---------------------------------------------

class TestAllMinimumStop:
    def test_walk_not_entered_when_all_minimum_meets_target(
            self, monkeypatch):
        from repro.opt.circuit import sizing

        def no_walk(*args):
            raise AssertionError("walked though all-minimum meets target")

        monkeypatch.setattr(sizing, "_walk", no_walk)
        net = build_circuit(5, 4, 30, num_latches=1)
        ones = {n: 1.0 for n in net.nodes}
        for target in (critical_path_delay(net, ones, PARAMS), 1e9):
            res = size_for_power(net, random_activity(net, 5),
                                 delay_target=target, apply=False)
            assert set(res.sizes.values()) == {1.0}
            assert res.moves == 2 * len(res.sizes)

    def test_walk_strands_a_zero_activity_gate(self):
        """The default flow's sizing situation on random_logic(16, 150,
        seed=2): the walk leaves constant gate g114 at size 4, since
        shrinking it saves nothing.  The result is all-minimum instead,
        at the same switched capacitance."""
        from repro.core.flow import low_power_flow
        from repro.logic.generators import random_logic
        from repro.opt.circuit import sizing
        from repro.power.activity import activity_from_simulation

        net = low_power_flow(random_logic(16, 150, seed=2),
                             use_sizing=False).final
        activity, _ = activity_from_simulation(net, 1024, 0, None)
        target = critical_path_delay(net, {n: 1.0 for n in net.nodes},
                                     PARAMS)
        start = {n.name: 4.0 for n in net.gate_nodes()}
        walked = sizing._walk(net, start, activity, target,
                              [1.0, 2.0, 4.0], PARAMS)
        assert {n: s for n, s in walked.items() if s != 1.0} == \
            {"g114": 4.0}
        assert net.nodes["g114"].fanins == [] and activity["g114"] == 0.0
        res = size_for_power(net, activity, delay_target=target,
                             apply=False)
        assert set(res.sizes.values()) == {1.0}
        assert res.power_after == switched_capacitance(net, walked,
                                                        activity, PARAMS)
        flow = low_power_flow(random_logic(16, 150, seed=2))
        assert {float(n.attrs["size"]) for n in flow.final.gate_nodes()} \
            == {1.0}


# -- node_capacitance on the load table ------------------------------------

def assert_caps_match(net):
    for name in net.nodes:
        assert node_capacitance(net, name) == ref_node_capacitance(net, name)
        assert net.fanout_count(name) == ref_fanout_count(net, name)


class TestNodeCapacitance:
    @SETTINGS
    @given(**circuit_args)
    def test_mapped_cells(self, seed, num_inputs, num_gates):
        net = mapped_circuit(seed, num_inputs, num_gates)
        assert any("cell" in n.attrs for n in net.nodes.values())
        assert_caps_match(net)

    @SETTINGS
    @given(num_latches=st.integers(1, 4), **circuit_args)
    def test_latch_pins_outputs_and_multi_pin_readers(
            self, seed, num_inputs, num_gates, num_latches):
        net = build_circuit(seed, num_inputs, num_gates, num_latches,
                            repeat_fanins=True)
        assert_caps_match(net)

    def test_latch_reading_one_net_on_both_pins(self):
        net = Network()
        net.add_inputs(["a", "b"])
        net.add_gate("g", GateType.AND, ["a", "a", "b"])
        net.add_latch("g", "q", enable="g")
        net.set_output("g")
        assert net.load("a").readers == (("g", 2),)
        assert net.load("g").latches == 1
        assert net.fanout_count("g") == 3    # data + enable + PO
        assert_caps_match(net)

    def test_power_report_total_unchanged_by_table(self):
        net = mapped_circuit(7, 5, 25)
        activity = random_activity(net, 7)
        report = power_report(net, activity)
        expected = {n: ref_node_capacitance(net, n) for n in net.nodes}
        for name, power in report.per_node.items():
            cap = expected[name] * PARAMS.cap_unit
            p_sw = 0.5 * cap * PARAMS.vdd ** 2 * PARAMS.frequency * \
                activity[name]
            p_sc = PARAMS.q_sc_fraction * cap * PARAMS.vdd * PARAMS.vdd * \
                PARAMS.frequency * activity[name]
            assert power == p_sw + p_sc


class TestOneLoadModel:
    """Sizing, the power report and the load model price one network
    the same way."""

    def test_mapped_sizing_prices_what_the_report_measures(self):
        from repro.logic.generators import array_multiplier

        net = tech_map(array_multiplier(3), generic_library(),
                       objective="power").mapped
        rng = random.Random(11)
        for node in net.gate_nodes():
            node.attrs["size"] = rng.choice([1.0, 2.0, 4.0])
        activity = random_activity(net, 11)
        expected = 0.0
        for name in net.nodes:
            expected += activity[name] * node_capacitance(net, name, PARAMS)
        assert switched_capacitance(net, attr_sizes(net), activity,
                                    PARAMS) == expected

    @SETTINGS
    @given(mapped=st.booleans(), **circuit_args)
    def test_node_capacitance_is_own_plus_load(self, seed, num_inputs,
                                               num_gates, mapped):
        net = mapped_circuit(seed, num_inputs, num_gates) if mapped else \
            build_circuit(seed, num_inputs, num_gates, seed % 3,
                          repeat_fanins=True)
        sizes = attr_sizes(net)
        for name, node in net.nodes.items():
            own = ref_own_cap(node, sizes[name], PARAMS)
            load = load_capacitance(net, name)
            assert load == ref_load_cap(net, name, sizes, PARAMS)
            assert node_capacitance(net, name) == own + load
            assert node_capacitance(net, name, PARAMS, sizes) == own + load


# -- table invalidation and totality --------------------------------------

def small_net():
    net = Network()
    net.add_inputs(["a", "b", "c"])
    net.add_gate("g", GateType.AND, ["a", "b"])
    net.add_gate("h", GateType.OR, ["g", "c", "g"])
    net.set_output("h")
    return net


class TestLoadTableInvalidation:
    def test_add_gate(self):
        net = small_net()
        net.loads()
        net.add_gate("k", GateType.NOT, ["g"])
        assert net.load("g").readers == (("h", 2), ("k", 1))
        assert_caps_match(net)

    def test_add_latch(self):
        net = small_net()
        net.loads()
        net.add_latch("h", "q", enable="g")
        assert net.load("h").latches == 1
        assert net.load("g").latches == 1
        assert_caps_match(net)

    def test_replace_everywhere(self):
        net = small_net()
        net.add_latch("g", "q")
        net.loads()
        net.replace_everywhere("g", "c")
        assert net.load("g") == ((), 0)
        assert net.load("c").readers == (("h", 3),)
        assert net.load("c").latches == 1
        assert_caps_match(net)

    def test_remove_node(self):
        net = small_net()
        net.add_gate("k", GateType.NOT, ["a"])
        net.loads()
        net.remove_node("k")
        assert net.load("a").readers == (("g", 1),)
        assert_caps_match(net)

    def test_set_output(self):
        """The primary-output term is read live: no invalidation needed."""
        net = small_net()
        before = node_capacitance(net, "g")
        net.set_output("g")
        assert node_capacitance(net, "g") == \
            before + PARAMS.output_load_units
        assert net.fanout_count("g") == 3
        assert_caps_match(net)

    def test_sweep_removes_dead_chains(self):
        net = small_net()
        net.add_gate("d1", GateType.NOT, ["a"])
        net.add_gate("d2", GateType.AND, ["d1", "d1"])
        net.add_gate("d3", GateType.OR, ["d2", "g"])
        net.loads()
        assert net.sweep() == 3
        assert list(net.nodes) == ["a", "b", "c", "g", "h"]
        assert net.load("a").readers == (("g", 1),)
        assert_caps_match(net)

    def test_undriven_fanins_are_total(self):
        """Lint loads broken BLIF unchecked: the reader map, the table
        and ``fanout_count`` must not raise on an undriven net."""
        text = (".model broken\n.inputs a\n.outputs y\n"
                ".names a ghost y\n11 1\n"
                ".latch ghost2 q 0\n.end\n")
        net = read_blif(text, check=False)
        assert net.fanouts()["ghost"] == ["y"]
        assert net.load("ghost").readers == (("y", 1),)
        assert net.load("ghost2").latches == 1
        assert net.fanout_count("ghost") == 1
        assert net.fanout_count("ghost2") == 1
        assert net.fanout_count("nowhere") == 0
        assert net.load("nowhere") == ((), 0)

    @pytest.mark.parametrize("mutate", ["gate", "latch", "replace"])
    def test_table_is_rebuilt_not_patched(self, mutate):
        net = small_net()
        table = net.loads()
        if mutate == "gate":
            net.add_gate("k", GateType.BUF, ["h"])
        elif mutate == "latch":
            net.add_latch("h", "q")
        else:
            net.replace_everywhere("c", "a")
        assert net.loads() is not table
        assert_caps_match(net)
