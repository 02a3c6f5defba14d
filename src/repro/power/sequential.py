"""Exact average-power estimation for sequential circuits ([28]).

Monteiro & Devadas: the average power of a sequential machine under
stationary input statistics is an expectation over the chain's
stationary distribution, not over uniform random states.  This module
enumerates the reachable state space of a :class:`Network`, solves for
the stationary distribution of the (state × input) Markov chain, and
computes *exact* per-node switching activities:

    act(n) = Σ_{s,x} π(s)·P(x) · E_{x'}[ v_n(s,x) ≠ v_n(δ(s,x), x') ]

Feasible whenever ``|reachable states| × 2^inputs`` is small — the
regime in which the surveyed FSM optimizations operate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.logic.netlist import Network


@dataclass
class SequentialAnalysis:
    """Reachable-state analysis results."""

    states: List[Tuple[int, ...]]          # latch-value vectors
    stationary: List[float]
    activities: Dict[str, float]
    node_probabilities: Dict[str, float]

    @property
    def num_states(self) -> int:
        return len(self.states)


def exact_sequential_activity(net: Network,
                              input_probs: Optional[Dict[str, float]]
                              = None,
                              max_states: int = 4096
                              ) -> SequentialAnalysis:
    """Exact node activities of a sequential network.

    ``input_probs[pi]`` is P(pi = 1) per cycle (inputs temporally and
    spatially independent).  The state distribution is the long-run
    average of the chain started in the reset state (see
    :func:`_long_run_distribution`).  Raises if the reachable state
    space exceeds ``max_states``.
    """
    input_probs = input_probs or {}
    pis = list(net.inputs)
    latches = [l.output for l in net.latches]
    n_in = len(pis)
    num_minterms = 1 << n_in
    minterm_prob = []
    for m in range(num_minterms):
        p = 1.0
        for i, pi in enumerate(pis):
            q = input_probs.get(pi, 0.5)
            p *= q if (m >> i) & 1 else 1.0 - q
        minterm_prob.append(p)

    mask = (1 << num_minterms) - 1
    input_words = {}
    for i, pi in enumerate(pis):
        w = 0
        for m in range(num_minterms):
            if (m >> i) & 1:
                w |= 1 << m
        input_words[pi] = w

    # BFS over reachable states; per state, evaluate all inputs at once.
    init = tuple(l.init for l in net.latches)
    index: Dict[Tuple[int, ...], int] = {init: 0}
    states: List[Tuple[int, ...]] = [init]
    value_words: List[Dict[str, int]] = []
    successors: List[List[int]] = []       # [state][minterm] -> state idx
    frontier = [init]
    while frontier:
        nxt_frontier = []
        for state in frontier:
            state_words = {name: (mask if bit else 0)
                           for name, bit in zip(latches, state)}
            nxt, values = net.step_words(state_words, input_words, mask)
            value_words.append(values)
            succ_row = []
            for m in range(num_minterms):
                succ = tuple((nxt[l] >> m) & 1 for l in latches)
                if succ not in index:
                    if len(states) >= max_states:
                        raise RuntimeError(
                            f"reachable state space exceeds "
                            f"{max_states} states")
                    index[succ] = len(states)
                    states.append(succ)
                    nxt_frontier.append(succ)
                succ_row.append(index[succ])
            successors.append(succ_row)
        # value_words/successors are appended in BFS discovery order,
        # which matches `states` ordering because each state is
        # processed exactly once.
        frontier = nxt_frontier

    rows: List[Dict[int, float]] = [{} for _ in successors]
    for s, succ_row in enumerate(successors):
        for m, t in enumerate(succ_row):
            if minterm_prob[m] > 0.0:
                rows[s][t] = rows[s].get(t, 0.0) + minterm_prob[m]
    pi_dist = _long_run_distribution(rows)
    num_states = len(states)
    # Per node: W[s] = Σ_x P(x)·v(s, x), then
    # act = Σ_{s,x} π(s) P(x) (v ? 1-W[succ] : W[succ]).
    activities: Dict[str, float] = {}
    probabilities: Dict[str, float] = {}
    node_names = list(net.nodes)
    for name in node_names:
        weighted_ones = []
        for s in range(num_states):
            w = value_words[s][name]
            total = 0.0
            for m in range(num_minterms):
                if (w >> m) & 1:
                    total += minterm_prob[m]
            weighted_ones.append(total)
        act = 0.0
        prob = 0.0
        for s in range(num_states):
            ps = pi_dist[s]
            if ps == 0.0:
                continue
            w = value_words[s][name]
            row = successors[s]
            prob += ps * weighted_ones[s]
            for m in range(num_minterms):
                pm = minterm_prob[m]
                if pm == 0.0:
                    continue
                wo = weighted_ones[row[m]]
                if (w >> m) & 1:
                    act += ps * pm * (1.0 - wo)
                else:
                    act += ps * pm * wo
        activities[name] = act
        probabilities[name] = prob
    return SequentialAnalysis(states=states, stationary=pi_dist,
                              activities=activities,
                              node_probabilities=probabilities)


def _long_run_distribution(rows: List[Dict[int, float]]) -> List[float]:
    """Cesàro limit ``lim (1/T) Σ_{t<T} P(state_t = s)`` of the chain
    that starts in state 0 and moves from ``s`` to ``t`` with
    probability ``rows[s][t]`` (sparse rows: positive entries only).

    Exact, so periodic chains and reset states that reach several
    closed classes are covered: a transient state gets 0, and each
    closed class (a sink strongly connected component) its stationary
    distribution weighted by the probability that the chain ends up in
    it.  That probability is read off the chain that restarts from
    state 0 whenever it enters a closed class.  Cost is linear in the
    transitions plus the fill-in of :func:`_stationary`.
    """
    n = len(rows)
    comp = _components(rows)
    reached = [s for s in range(n) if comp[s] >= 0]
    closed = [True] * (max(comp) + 1)
    for s in reached:
        for t in rows[s]:
            if comp[t] != comp[s]:
                closed[comp[s]] = False
    restart = {s: {0: 1.0} if closed[comp[s]] else rows[s]
               for s in reached}
    # Running sums, not sum(): from Python 3.12 on, sum() of floats is
    # compensated and rounds differently.
    entered = 0.0
    classes: Dict[int, List[int]] = {}
    mass: Dict[int, float] = {}
    for s, x in zip(reached, _stationary(restart, reached)):
        if closed[comp[s]]:
            classes.setdefault(comp[s], []).append(s)
            mass[comp[s]] = mass.get(comp[s], 0.0) + x
            entered += x
    pi = [0.0] * n
    for c, cls in classes.items():
        for s, x in zip(cls, _stationary(rows, cls)):
            pi[s] = mass[c] / entered * x
    return pi


def _components(rows: List[Dict[int, float]]) -> List[int]:
    """Strongly connected component of every state reachable from state
    0, -1 for the others (iterative Tarjan, linear in the transitions).
    """
    n = len(rows)
    index, low, comp = [-1] * n, [0] * n, [-1] * n
    stack: List[int] = []
    work: List[Tuple[int, Iterator[int]]] = []
    count = ncomp = 0

    def visit(v: int) -> None:
        nonlocal count
        index[v] = low[v] = count
        count += 1
        stack.append(v)
        work.append((v, iter(rows[v])))

    visit(0)
    while work:
        v, edges = work[-1]
        for w in edges:
            if index[w] < 0:
                visit(w)
                break
            if comp[w] < 0:             # on the stack
                low[v] = min(low[v], index[w])
        else:
            work.pop()
            if work:
                low[work[-1][0]] = min(low[work[-1][0]], low[v])
            if low[v] == index[v]:
                while comp[v] < 0:
                    comp[stack.pop()] = ncomp
                ncomp += 1
    return comp


def _stationary(rows, states: List[int]) -> List[float]:
    """Stationary distribution over ``states`` of a chain (``rows[s]``:
    successor -> probability) whose one closed class holds
    ``states[0]``, by Grassmann–Taksar–Heyman state elimination on
    sparse rows: no subtractions, and cost set by the fill-in (linear
    for a counter, cubic only for dense transition structures)."""
    k = len(states)
    pos = {s: i for i, s in enumerate(states)}
    a = [{pos[t]: p for t, p in rows[s].items()} for s in states]
    pred: List[Set[int]] = [set() for _ in range(k)]
    for i, row in enumerate(a):
        for j in row:
            pred[j].add(i)
    for v in range(k - 1, 0, -1):
        row_v = a[v]
        down = 0.0
        for j, p in row_v.items():
            if j < v:
                down += p
        for i in pred[v]:
            if i < v:
                row_i = a[i]
                w = row_i[v] = row_i[v] / down
                for j, p in row_v.items():
                    if j < v:
                        pred[j].add(i)
                        row_i[j] = row_i.get(j, 0.0) + w * p
    x = [1.0] + [0.0] * (k - 1)
    total = 1.0
    for v in range(1, k):
        acc = 0.0
        for i in sorted(pred[v]):
            if i < v:
                acc += x[i] * a[i][v]
        x[v] = acc
        total += acc
    return [v / total for v in x]


def exact_sequential_power(net: Network,
                           input_probs: Optional[Dict[str, float]]
                           = None, params=None):
    """Convenience: exact activities followed by the Eqn-1 model."""
    from repro.power.model import power_report

    analysis = exact_sequential_activity(net, input_probs)
    return power_report(net, analysis.activities, params)
