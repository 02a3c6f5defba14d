"""Property-based tests over random completely-specified FSMs:
synthesis, encoding, clock gating, minimization and the exact
sequential estimator must all agree with each other."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.opt.seq.encoding import (encode_anneal, encode_greedy,
                                    encode_natural, encoding_cost)
from repro.opt.seq.gated_clock import self_loop_clock_gating
from repro.opt.seq.minimize_fsm import (is_behaviourally_equivalent,
                                        minimize_stg)
from repro.opt.seq.stg import STG, synthesize_fsm
from repro.power.sequential import exact_sequential_activity
from repro.sim.functional import sequential_transitions
from repro.verify.equivalence import sequential_equivalent

SETTINGS = settings(max_examples=15, deadline=None)


def random_machine(seed, n):
    """A random completely-specified 1-input Moore-ish machine."""
    rng = random.Random(seed)
    stg = STG(1, 1)
    states = [f"s{i}" for i in range(n)]
    for s in states:
        out = str(rng.getrandbits(1))
        stg.add_transition("0", s, rng.choice(states), out)
        stg.add_transition("1", s, rng.choice(states), out)
    return stg


@st.composite
def random_fsms(draw, max_states=5):
    seed = draw(st.integers(0, 10 ** 6))
    n = draw(st.integers(2, max_states))
    return random_machine(seed, n)


def closed_classes(stg):
    """The closed (absorbing) state classes the reset state reaches."""
    succ = {s: set() for s in stg.states}
    for t in stg.transitions:
        succ[t.src].add(t.dst)

    def reach(s):
        seen, todo = {s}, [s]
        while todo:
            for t in succ[todo.pop()] - seen:
                seen.add(t)
                todo.append(t)
        return frozenset(seen)

    after = {s: reach(s) for s in stg.states}
    return {after[s] for s in after[stg.reset_state]
            if all(s in after[t] for t in after[s])}


def mean_activity(net, runs=4096, cycles=400, seed=0):
    """Node activity averaged over ``runs`` independent trajectories from
    reset, simulated bit-parallel (bit k of every word is run k)."""
    rng = random.Random(seed)
    mask = (1 << runs) - 1
    state = {la.output: mask if la.init else 0 for la in net.latches}
    prev, toggles = None, {}
    for _ in range(cycles):
        inputs = {pi: rng.getrandbits(runs) for pi in net.inputs}
        state, values = net.step_words(state, inputs, mask)
        if prev is not None:
            for name, w in values.items():
                toggles[name] = toggles.get(name, 0) + \
                    (w ^ prev[name]).bit_count()
        prev = values
    return {k: c / (runs * (cycles - 1)) for k, c in toggles.items()}


@given(random_fsms())
@SETTINGS
def test_synthesis_tracks_stg(stg):
    enc = encode_natural(stg)
    net = synthesize_fsm(stg, enc)
    rng = random.Random(1)
    state = net.initial_state()
    stg_state = stg.reset_state
    bits = max(1, max(enc.values()).bit_length())
    for _ in range(40):
        x = rng.getrandbits(1)
        state, vals = net.step_words(state, {"x0": x}, 1)
        stg_state, out = stg.next_state(stg_state, x)
        got = sum(state[f"s{j}"] << j for j in range(bits))
        assert got == enc[stg_state]
        assert vals["z0"] == int(out)


@given(random_fsms())
@SETTINGS
def test_optimized_encodings_never_worse(stg):
    nat = encoding_cost(stg, encode_natural(stg))
    gre = encoding_cost(stg, encode_greedy(stg))
    ann = encoding_cost(stg, encode_anneal(stg, iterations=600,
                                           seed=0))
    assert gre <= nat + 1e-9 or ann <= nat + 1e-9
    assert ann <= gre + 1e-9


@given(random_fsms())
@SETTINGS
def test_clock_gating_formally_equivalent(stg):
    res = self_loop_clock_gating(stg, encode_natural(stg))
    assert sequential_equivalent(res.baseline, res.network,
                                 max_joint_states=5000).equivalent


@given(random_fsms())
@SETTINGS
def test_minimization_preserves_behaviour(stg):
    red = minimize_stg(stg)
    assert len(red.states) <= len(stg.states)
    assert is_behaviourally_equivalent(stg, red, stg.reset_state,
                                       red.reset_state, length=120)


@given(random_fsms())
@SETTINGS
def test_exact_estimator_matches_simulation(stg):
    # One long trajectory only samples the closed class it falls into.
    assume(len(closed_classes(stg)) == 1)
    net = synthesize_fsm(stg, encode_natural(stg))
    analysis = exact_sequential_activity(net)
    rng = random.Random(3)
    vecs = [{"x0": rng.getrandbits(1)} for _ in range(6000)]
    sim_tr, _ = sequential_transitions(net, vecs)
    for name, count in sim_tr.items():
        sim_act = count / (len(vecs) - 1)
        assert abs(analysis.activities[name] - sim_act) < 0.06, name


@pytest.mark.parametrize("seed, n", [(137, 5), (156, 4), (374, 5)])
def test_exact_estimator_averages_closed_classes(seed, n):
    """Reset reaches two closed classes (at seed 137, s0 goes to the
    absorbing s1 or to {s3, s4}): the exact activity is the mean over
    trajectories from reset, whichever class each one ends in."""
    stg = random_machine(seed, n)
    assert len(closed_classes(stg)) == 2
    net = synthesize_fsm(stg, encode_natural(stg))
    analysis = exact_sequential_activity(net)
    assert sum(analysis.stationary) == pytest.approx(1.0)
    for name, act in mean_activity(net).items():
        assert abs(analysis.activities[name] - act) < 0.015, name


def test_exact_estimator_periodic_chain():
    """A deterministic 3-cycle is periodic: every state holds 1/3 of the
    time, and each state bit toggles twice per period."""
    stg = STG(1, 1)
    for i in range(3):
        stg.add_transition("-", f"s{i}", f"s{(i + 1) % 3}", str(i % 2))
    net = synthesize_fsm(stg, encode_natural(stg))
    analysis = exact_sequential_activity(net)
    assert analysis.stationary == pytest.approx([1 / 3] * 3)
    for latch in net.latches:
        assert analysis.activities[latch.output] == pytest.approx(2 / 3)


def test_stg_distribution_from_reset():
    """At seed 137, s0 goes to the absorbing s1 or to the class
    {s3, s4} with probability 1/2 each; s2 is unreachable.  A power
    iteration from a uniform start gave pi(s1) = 0.4 here."""
    pi = random_machine(137, 5).stationary_distribution()
    assert pi == pytest.approx({"s0": 0.0, "s1": 0.5, "s2": 0.0,
                                "s3": 0.25, "s4": 0.25}, abs=1e-12)


@given(random_fsms())
@SETTINGS
def test_stg_distribution_matches_synthesized_machine(stg):
    """The STG's distribution is the exact estimator's state
    distribution of its synthesized machine (0 off the reachable
    states)."""
    enc = encode_natural(stg)
    net = synthesize_fsm(stg, enc)
    analysis = exact_sequential_activity(net)
    bits = max(1, max(enc.values()).bit_length())
    by_code = {}
    for state, p in zip(analysis.states, analysis.stationary):
        value = {la.output: b for la, b in zip(net.latches, state)}
        by_code[sum(value[f"s{j}"] << j for j in range(bits))] = p
    pi = stg.stationary_distribution()
    for s in stg.states:
        assert pi[s] == pytest.approx(by_code.get(enc[s], 0.0), abs=1e-9)


@given(random_fsms())
@SETTINGS
def test_stationary_distribution_is_stochastic(stg):
    pi = stg.stationary_distribution()
    assert abs(sum(pi.values()) - 1.0) < 1e-6
    assert all(p >= -1e-12 for p in pi.values())
