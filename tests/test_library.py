"""Unit tests for the technology library and switch-level stack model."""

import random

import pytest

from repro.library.cells import Library, generic_library
from repro.library.transistors import SeriesStack, StackEnergyModel


def power_iteration_energy(stack, probs, iterations=2000):
    """Oracle for ``expected_energy``: the stack as one Markov chain over
    node-state vectors, its stationary distribution found by power
    iteration from the state the first input vector leaves."""
    n = stack.n
    caps = [stack.model.c_output] + [stack.model.c_internal] * (n - 1)
    vdd2 = stack.model.vdd ** 2

    def vec_prob(v):
        p = 1.0
        for i in range(n):
            p *= probs[i] if (v >> i) & 1 else 1.0 - probs[i]
        return p

    def bits(v):
        return [(v >> i) & 1 for i in range(n)]

    inputs = [(v, vec_prob(v)) for v in range(1 << n) if vec_prob(v) > 0]
    step = {}

    def move(state, v):
        key = (state, v)
        if key not in step:
            step[key] = tuple(stack.node_states(bits(v), list(state)))
        return step[key]

    dist = {tuple(stack.node_states(bits(inputs[0][0]))): 1.0}
    for _ in range(iterations):
        nxt = {}
        for state, p_s in dist.items():
            for v, p_v in inputs:
                s1 = move(state, v)
                nxt[s1] = nxt.get(s1, 0.0) + p_s * p_v
        delta = sum(abs(nxt.get(s, 0.0) - dist.get(s, 0.0))
                    for s in set(nxt) | set(dist))
        dist = nxt
        if delta < 1e-15:
            break
    energy = 0.0
    for state, p_s in dist.items():
        for v, p_v in inputs:
            s1 = move(state, v)
            e = sum(c * (after - before) * vdd2
                    for c, before, after in zip(caps, state, s1)
                    if after > before)
            energy += p_s * p_v * e
    return energy


class TestCells:
    def test_library_contents(self):
        lib = generic_library()
        assert len(lib) >= 20
        assert "nand2_x1" in lib.cells
        assert "inv_x2" in lib.cells

    def test_drive_strength_trade(self):
        lib = generic_library()
        x1, x2 = lib["nand2_x1"], lib["nand2_x2"]
        assert x2.area == 2 * x1.area
        assert x2.input_cap == 2 * x1.input_cap
        assert x2.delay(10.0) < x1.delay(10.0)

    def test_cell_functions(self):
        lib = generic_library()
        nand = lib["nand2_x1"]
        assert nand.cover.evaluate(0b00)
        assert not nand.cover.evaluate(0b11)
        aoi = lib["aoi21_x1"]
        # out = !(p0 p1 + p2)
        for m in range(8):
            p0, p1, p2 = m & 1, (m >> 1) & 1, (m >> 2) & 1
            assert aoi.cover.evaluate(m) == (not (p0 and p1 or p2))

    def test_smallest_inverter(self):
        lib = generic_library()
        assert lib.smallest_inverter().name == "inv_x1"

    def test_no_inverter_raises(self):
        lib = Library([generic_library()["nand2_x1"]])
        with pytest.raises(ValueError):
            lib.smallest_inverter()


class TestSeriesStack:
    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            SeriesStack(3, [0, 0, 1])

    def test_all_on_discharges_everything(self):
        stack = SeriesStack(3)
        states = stack.node_states([1, 1, 1])
        assert states == [0.0, 0.0, 0.0]

    def test_all_off_output_high(self):
        stack = SeriesStack(3)
        states = stack.node_states([0, 0, 0])
        assert states[0] == 1.0

    def test_internal_node_follows_output(self):
        # Top transistor on, bottom off: internal node 1 charges.
        stack = SeriesStack(2)
        states = stack.node_states([1, 0])
        assert states[0] == 1.0 and states[1] == 1.0

    def test_floating_node_retains(self):
        stack = SeriesStack(3)
        prev = [1.0, 1.0, 0.0]
        # Input pattern leaving node 2 floating (top off, bottom off).
        states = stack.node_states([0, 0, 0], previous=prev)
        assert states[2] == prev[2]

    def test_expected_energy_matches_simulation(self):
        import random
        stack = SeriesStack(3)
        probs = [0.7, 0.5, 0.3]
        analytic = stack.expected_energy(probs)
        rng = random.Random(0)
        vectors = [[int(rng.random() < p) for p in probs]
                   for _ in range(20000)]
        sim = stack.energy_of_sequence(vectors) / (len(vectors) - 1)
        # The analytic value uses a 2-step window; allow modest slack.
        assert sim == pytest.approx(analytic, rel=0.15)

    @pytest.mark.parametrize("seed", range(12))
    def test_expected_energy_matches_power_iteration(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        probs = [rng.uniform(0.2, 0.95) for _ in range(n)]
        order = rng.sample(range(n), n)
        model = StackEnergyModel(c_output=rng.uniform(1, 8),
                                 c_internal=rng.uniform(0.5, 2),
                                 vdd=rng.uniform(0.8, 3.3))
        stack = SeriesStack(n, order, model)
        assert stack.expected_energy(probs) == pytest.approx(
            power_iteration_energy(stack, probs), rel=1e-9)

    def test_expected_energy_edge_probabilities(self):
        """Inputs stuck at 0 or 1: nodes that never move switch nothing,
        and a stuck-on stack reduces to its free inputs."""
        stack = SeriesStack(3)
        assert stack.expected_energy([0.0, 0.0, 0.0]) == 0.0
        assert stack.expected_energy([1.0, 1.0, 1.0]) == 0.0
        for probs in ([1.0, 0.5, 0.3], [0.4, 0.0, 0.7], [0.6, 1.0, 0.0]):
            assert stack.expected_energy(probs) == pytest.approx(
                power_iteration_energy(stack, probs), rel=1e-9, abs=1e-12)

    def test_ordering_changes_energy(self):
        probs = [0.95, 0.5, 0.05]
        e_identity = SeriesStack(3, [0, 1, 2]).expected_energy(probs)
        e_reversed = SeriesStack(3, [2, 1, 0]).expected_energy(probs)
        assert e_identity != e_reversed

    def test_elmore_prefers_late_near_output(self):
        stack = SeriesStack(3)
        # Input 2 arrives last.
        arrival = [0.0, 0.0, 5.0]
        d_bad = SeriesStack(3, [0, 1, 2]).elmore_delay(arrival)
        d_good = SeriesStack(3, [2, 0, 1]).elmore_delay(arrival)
        assert d_good < d_bad

    def test_model_parameters_scale(self):
        big = StackEnergyModel(c_output=8.0)
        e1 = SeriesStack(2, model=StackEnergyModel()).expected_energy(
            [0.5, 0.5])
        e2 = SeriesStack(2, model=big).expected_energy([0.5, 0.5])
        assert e2 > e1
