"""Don't-care based node optimization targeting power (Section III-A.1).

For each internal node we compute its don't-care set over its fanins
from the global BDDs that :func:`~repro.bdd.circuit.network_bdds` builds:
the fanin combinations that no input assignment produces
(*controllability* don't-cares) or that only assignments under which
the node's value reaches no output produce (*observability*
don't-cares).  One fanin relation ``R`` gives both at once,
``DC = ¬∃x (R ∧ ¬ODC)``.  The node's cover is then
re-minimized against the don't-care set, choosing among the legal covers
the one that minimizes the node's expected switching contribution
``2·p·(1−p)·C`` — the power-aware exploitation of don't-cares from
[38] (Shen et al.) refined by [19] (Iman & Pedram).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.bdd.bdd import BDDFunction
from repro.bdd.circuit import bdd_to_cover, network_bdds, node_function
from repro.logic.netlist import Network
from repro.logic.sop import Cover
from repro.logic.transform import gates_to_sop
from repro.power.activity import (activity_from_probability,
                                  signal_probability_propagation,
                                  word_statistics)
from repro.power.model import load_capacitance, node_capacitance
from repro.sim.compiled import get_compiled
from repro.sim.vectors import random_words


def _sources(net: Network) -> List[str]:
    return [n.name for n in net.nodes.values() if n.is_source()]


def _dont_cares(net: Network, node_name: str,
                funcs: Dict[str, BDDFunction],
                odc: BDDFunction) -> Cover:
    """Don't-care set of a node as a cover over its fanins.

    With one auxiliary variable ``y_i`` per fanin and the fanin relation
    ``R = ∏ (y_i ≡ f_i)``, a fanin combination is a don't-care when no
    source assignment outside the observability don't-cares ``odc``
    produces it: ``DC = ¬∃x (R ∧ ¬odc)``.  That is the controllability
    don't-cares plus the combinations reached only under ``odc``.
    """
    node = net.node(node_name)
    bdd = odc.bdd
    aux = [f"__dc_{node_name}_{i}" for i in range(len(node.fanins))]
    relation = bdd.true
    for y, fi in zip(aux, node.fanins):
        relation = relation & ~(bdd.var(y) ^ funcs[fi])
    return bdd_to_cover(~relation.and_exists(~odc, _sources(net)), aux)


def controllability_dont_cares(net: Network, node_name: str,
                               funcs: Optional[Dict[str, BDDFunction]]
                               = None) -> Cover:
    """CDC set of a node as a cover over its fanins: the fanin
    combinations no source assignment produces."""
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    return _dont_cares(net, node_name, funcs, bdd.false)


def _fanout_cone(net: Network, node_name: str) -> Set[str]:
    """The node and every internal node it reaches (latches cut)."""
    fanouts = net.fanouts()
    cone = {node_name}
    stack = [node_name]
    while stack:
        for reader in fanouts.get(stack.pop(), ()):
            if reader not in cone and not net.nodes[reader].is_source():
                cone.add(reader)
                stack.append(reader)
    return cone


def observability_dont_cares(net: Network, node_name: str,
                             funcs: Optional[Dict[str, BDDFunction]]
                             = None) -> BDDFunction:
    """ODC set over the primary inputs: assignments under which flipping
    the node changes no primary output."""
    if funcs is None:
        funcs = network_bdds(net)
    bdd = next(iter(funcs.values())).bdd
    # Rebuild the node's transitive fanout cone twice, with the node
    # fixed to FALSE and to TRUE: an output ignores the node exactly
    # where its two cofactors agree.  Nodes outside the cone keep their
    # functions, and outputs outside it cannot see the node.
    cone = _fanout_cone(net, node_name)
    order = [name for name in net.topo_order()
             if name in cone and name != node_name]

    def rebuild(value: BDDFunction) -> Dict[str, BDDFunction]:
        alt = {node_name: value}
        for name in order:
            node = net.nodes[name]
            alt[name] = node_function(
                bdd, node,
                [alt[fi] if fi in alt else funcs[fi] for fi in node.fanins])
        return alt

    outs = [out for out in net.outputs if out in cone]
    odc = bdd.true
    if outs:
        f0, f1 = rebuild(bdd.false), rebuild(bdd.true)
        for out in outs:
            odc = odc & ~(f1[out] ^ f0[out])
    return odc


@dataclass
class DontCareResult:
    """Summary of a don't-care optimization pass."""

    nodes_changed: int
    switched_cap_before: float
    switched_cap_after: float
    literals_before: int
    literals_after: int

    @property
    def power_saving(self) -> float:
        if self.switched_cap_before == 0.0:
            return 0.0
        return 1.0 - self.switched_cap_after / self.switched_cap_before


def _node_cost(cover: Cover, fanin_probs: List[float],
               load_cap: float) -> float:
    """Local power cost of one candidate cover.

    The node's switched capacitance is its (literal-dependent) self
    capacitance plus the external load it drives; a small literal term
    breaks ties toward smaller covers.
    """
    p = cover.probability(fanin_probs)
    activity = activity_from_probability(p)
    self_cap = 0.5 * (2 * cover.num_literals() + 2)
    return activity * (self_cap + load_cap) + 0.05 * cover.num_literals()


#: Nodes with more fanins than this keep their cover.
MAX_FANINS = 10


def _switched_cap(net: Network, values: Dict[str, int],
                  num_vectors: int) -> float:
    """Σ activity·C over the internal nodes, from simulation words."""
    activity, _p = word_statistics(values, num_vectors)
    # A running total, not sum(): from Python 3.12 on, sum() of floats
    # is compensated and rounds differently.
    cap = 0.0
    for name, node in net.nodes.items():
        if not node.is_source():
            cap += activity[name] * node_capacitance(net, name)
    return cap


def _literals(net: Network) -> int:
    return sum(node.cover.num_literals() for node in net.nodes.values()
               if not node.is_source() and node.cover)


def dontcare_power_optimization(net: Network,
                                input_probs: Optional[Dict[str, float]]
                                = None,
                                num_vectors: int = 512,
                                seed: int = 0) -> DontCareResult:
    """In-place don't-care re-minimization of every eligible node.

    Nodes are visited in topological order; candidate covers are scored
    with the fast probability-propagation model, but each rewrite is
    accepted only if the *global* switched-capacitance estimate improves
    (the transitive-fanout awareness of [19]).  That global check is a
    reconvergence-aware Monte-Carlo estimate (``num_vectors``/``seed``).
    Raises :class:`~repro.bdd.bdd.BDDBudgetExceeded` when the network's
    BDDs outgrow the kernel's node budget; ``net`` may then be partly
    rewritten.
    """
    gates_to_sop(net)   # so the new covers can be installed in place
    probs = signal_probability_propagation(net, input_probs)

    # The global check simulates one stimulus for the whole pass: a
    # candidate rewrite re-simulates only the rewritten node's fanout
    # cone, against the words and cost of the adopted network.
    words = random_words(_sources(net), num_vectors, seed, input_probs)
    mask = (1 << num_vectors) - 1
    values = get_compiled(net).evaluate_words(words, mask)
    cap = cap_before = _switched_cap(net, values, num_vectors)
    lits_before = _literals(net)
    funcs = network_bdds(net)
    changed = 0
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source() or node.kind != "sop" or not node.fanins:
            continue
        if len(node.fanins) > MAX_FANINS:
            continue
        dc = _dont_cares(net, name, funcs,
                         observability_dont_cares(net, name, funcs))
        if dc.is_empty():
            continue
        on = node.cover
        fanin_probs = [probs[fi] for fi in node.fanins]
        load = load_capacitance(net, name)
        candidates = [on,
                      on.minimize(dc),
                      on.union(dc).minimize()]
        best = min(candidates,
                   key=lambda c: _node_cost(c, fanin_probs, load))
        if best is not on and not best.is_equivalent(on):
            # Accept only if the *global* estimate improves: a changed
            # node shifts the statistics of its whole transitive fanout
            # (the refinement of [19]).
            node.cover = best
            trial = {**values, **get_compiled(net).evaluate_incremental(
                values, (name,), words, mask)}
            trial_cap = _switched_cap(net, trial, num_vectors)
            if trial_cap < cap:
                values, cap = trial, trial_cap
                changed += 1
                probs = signal_probability_propagation(net, input_probs)
                funcs = network_bdds(net)
            else:
                node.cover = on
    return DontCareResult(nodes_changed=changed,
                          switched_cap_before=cap_before,
                          switched_cap_after=cap,
                          literals_before=lits_before,
                          literals_after=_literals(net))
