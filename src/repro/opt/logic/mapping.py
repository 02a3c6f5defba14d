"""Technology mapping by cut enumeration and dynamic programming
(Section III-B; DAGON [20] extended to power as in [43], [48], [26]).

The input network is first decomposed into a 2-input AND/OR/NOT subject
graph.  For every node we enumerate k-feasible cuts, compute the cut
function's truth table, and match it against the library (all input
permutations of every cell are pre-tabulated).  A bottom-up dynamic
program then selects, per node, the match minimizing the chosen cost:

* ``"area"``  — Σ cell area (the classical objective),
* ``"power"`` — Σ (activity at the match output) · (cell output cap)
  + Σ (activity at each leaf) · (cell input cap), the zero-delay power
  cost under which tree mapping is optimal (as the paper notes),
* ``"delay"`` — arrival time with the linear cell delay model.

Costs are summed over cut leaves (exact on trees, the usual
approximation on DAGs).  The mapped network consists of SOP nodes
carrying ``attrs["cell"]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.library.cells import Cell, Library

from repro.logic.gates import GateType, eval_gate
from repro.logic.netlist import Network, Node
from repro.logic.sop import truth_table
from repro.logic.transform import decompose_to_primitives, \
    collapse_buffers, propagate_constants
from repro.power.activity import activity_from_simulation

Cut = Tuple[str, ...]  # ordered leaf names


def _remap(tt: int, n: int, pos: Sequence[int]) -> int:
    """Truth table over ``n`` variables of the function ``tt`` whose
    variable j is variable ``pos[j]``."""
    out = 0
    for m in range(1 << n):
        src = 0
        for j, p in enumerate(pos):
            if (m >> p) & 1:
                src |= 1 << j
        if (tt >> src) & 1:
            out |= 1 << m
    return out


def _library_patterns(library: Library, max_inputs: int
                      ) -> Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...]]]]:
    """Map (num_inputs, truth_table) -> [(cell, pin permutation)].

    ``perm`` maps cut-leaf positions to cell pins: leaf i connects to
    cell pin perm[i].
    """
    patterns: Dict[Tuple[int, int], List[Tuple[Cell, Tuple[int, ...]]]] = {}
    for cell in library:
        n = cell.num_inputs
        if n == 0 or n > max_inputs:
            continue
        base_tt = truth_table(cell.cover)
        for perm in permutations(range(n)):
            tt = _remap(base_tt, n, [perm.index(j) for j in range(n)])
            patterns.setdefault((n, tt), []).append((cell, perm))
    return patterns


def _enumerate_cuts(net: Network, k: int, max_cuts_per_node: int = 12
                    ) -> Dict[str, List[Tuple[Cut, int]]]:
    """Bottom-up k-feasible cut enumeration (priority: fewer leaves),
    each cut with its root's truth table over the cut leaves.

    A merged cut's table is the node's function of its fanin cut
    tables, each expanded to the merged leaves.  That is the cone's
    function unless a leaf of one fanin's cut lies inside the other
    fanin's cone; such a cut is evaluated over its cone's inner nodes.
    """
    # name -> [(leaves, table, inner nodes of the cone)]
    cuts: Dict[str, List[Tuple[Cut, int, Tuple[str, ...]]]] = {}
    position: Dict[str, int] = {}
    # (node function, fanin tables with their leaf positions) -> table
    memo: Dict[tuple, int] = {}
    for name in net.topo_order():
        position[name] = len(position)
        node, out = net.nodes[name], [((name,), 0b10, ())]
        cuts[name] = out
        fanins = node.fanins
        if node.is_source() or not fanins:
            continue
        if len(fanins) == 1:        # the fanin's cuts, same leaves
            for leaves, t, inner in cuts[fanins[0]][:max_cuts_per_node - 1]:
                out.append((leaves, _node_word(
                    node, [t], (1 << (1 << len(leaves))) - 1),
                    inner + (name,)))
            continue
        local = _node_word(node, list(_leaf_words(2)), 0b1111)
        # The first fanin-cut pair of every feasible merged leaf set.
        merged: Dict[FrozenSet[str], tuple] = {}
        second = [(c, frozenset(c[0])) for c in cuts[fanins[1]]]
        for c1 in cuts[fanins[0]]:
            s1 = frozenset(c1[0])
            for c2, s2 in second:
                u = s1 | s2
                if len(u) <= k and u not in merged:
                    merged[u] = (c1, c2)
        for u in sorted(merged, key=len)[:max_cuts_per_node - 1]:
            (sub1, t1, inner1), (sub2, t2, inner2) = merged[u]
            leaves = tuple(sorted(u))
            n, mask = len(leaves), (1 << (1 << len(leaves))) - 1
            inner = set(inner1).union(inner2, (name,))
            if u.isdisjoint(inner):
                pos1 = tuple(map(leaves.index, sub1))
                pos2 = tuple(map(leaves.index, sub2))
                key = (local, t1, pos1, t2, pos2)
                if key not in memo:
                    memo[key] = _node_word(node, [_remap(t1, n, pos1),
                                                  _remap(t2, n, pos2)],
                                           mask)
                table = memo[key]
            else:
                inner -= u
                value = dict(zip(leaves, _leaf_words(n)))
                for x in sorted(inner, key=position.__getitem__):
                    value[x] = _node_word(
                        net.nodes[x],
                        [value[fi] for fi in net.nodes[x].fanins], mask)
                table = value[name]
            out.append((leaves, table, tuple(inner)))
    return {name: [c[:2] for c in cs] for name, cs in cuts.items()}


@lru_cache(maxsize=None)
def _leaf_words(n: int) -> Tuple[int, ...]:
    """Truth-table word of each of ``n`` cut leaves: bit m of word i is
    bit i of minterm m."""
    return tuple(sum(1 << m for m in range(1 << n) if (m >> i) & 1)
                 for i in range(n))


def _node_word(node: Node, ins: List[int], mask: int) -> int:
    if node.kind == "gate":
        return eval_gate(node.gtype, ins, mask)
    return node.cover.evaluate_words(ins, mask)


@dataclass
class MappingResult:
    """Cost summary of a mapping."""

    mapped: Network
    objective: str
    total_area: float
    power_cost: float
    arrival: float
    cells_used: Dict[str, int]


def tech_map(net: Network, library: Library, objective: str = "area",
             activity: Optional[Dict[str, float]] = None,
             k: int = 4, seed: int = 0,
             decomposition: str = "balanced",
             input_probs: Optional[Dict[str, float]] = None
             ) -> MappingResult:
    """Map a network onto ``library`` minimizing ``objective``.

    ``activity`` (per subject-graph node, transitions/cycle) is needed
    for the power objective; it is estimated by simulation of the
    subject graph when absent.  ``decomposition`` selects the subject
    graph style (``"balanced"`` or the probability-ordered ``"power"``
    chains of [48]; the latter uses ``input_probs``).
    """
    if objective not in ("area", "power", "delay"):
        raise ValueError("objective must be area, power or delay")
    subject = decompose_to_primitives(net, input_probs=input_probs,
                                      decomposition=decomposition)
    collapse_buffers(subject)
    propagate_constants(subject)
    collapse_buffers(subject)
    if objective == "power" and activity is None:
        activity, _ = activity_from_simulation(subject, num_vectors=1024,
                                               seed=seed,
                                               input_probs=input_probs)
    activity = activity or {}

    max_inputs = max(c.num_inputs for c in library)
    patterns = _library_patterns(library, min(k, max_inputs))
    cuts = _enumerate_cuts(subject, k)

    INF = float("inf")
    best_cost: Dict[str, float] = {}
    best_match: Dict[str, Tuple[Cell, Tuple[int, ...], Cut]] = {}
    arrival: Dict[str, float] = {}
    constants = {name for name, node in subject.nodes.items()
                 if node.kind == "gate" and
                 node.gtype in (GateType.CONST0, GateType.CONST1)}

    for name in subject.topo_order():
        if subject.nodes[name].is_source() or name in constants:
            best_cost[name] = 0.0
            arrival[name] = 0.0
            continue
        best_cost[name] = INF
        arrival[name] = INF
        act = activity.get(name, 0.0)
        # Leaves precede their root, so each has a finite cost by now.
        for cut, tt in cuts[name]:
            matches = patterns.get((len(cut), tt))
            if not matches or cut == (name,) or \
                    not constants.isdisjoint(cut):
                continue
            leaf_cost = sum(best_cost[l] for l in cut)
            leaf_arr = max((arrival[l] for l in cut), default=0.0)
            leaf_acts = [activity.get(l, 0.0) for l in cut]
            for cell, perm in matches:
                arr = leaf_arr + cell.delay(4.0)
                if objective == "area":
                    cost = leaf_cost + cell.area
                elif objective == "power":
                    own = act * cell.output_cap
                    pins = sum(a * cell.input_cap for a in leaf_acts)
                    cost = leaf_cost + own + pins
                else:
                    cost = arr
                better = cost < best_cost[name] or \
                    (cost == best_cost[name] and arr < arrival[name])
                if better:
                    best_cost[name] = cost
                    arrival[name] = arr
                    best_match[name] = (cell, perm, cut)
        if best_cost[name] == INF:
            raise RuntimeError(
                f"no library match for node {name!r}; the library must "
                f"cover 2-input AND/OR/NOT at minimum")

    # -- reconstruct the mapped netlist from the chosen matches ------------
    mapped = Network(net.name + "_mapped")
    for pi in subject.inputs:
        mapped.add_input(pi)
    for latch in subject.latches:
        mapped.add_latch(latch.data, latch.output, latch.init,
                         latch.enable)

    emitted: Dict[str, bool] = {}
    cells_used: Dict[str, int] = {}
    total_area = 0.0
    power_cost = 0.0

    def emit(name: str) -> None:
        if emitted.get(name):
            return
        node = subject.nodes[name]
        if node.is_source():
            emitted[name] = True
            return
        if name in constants:
            mapped.add_gate(name, node.gtype, [])
            emitted[name] = True
            return
        cell, perm, cut = best_match[name]
        for leaf in cut:
            emit(leaf)
        # Cut leaf i drives cell pin perm[i]; the mapped node's fanin
        # list is in pin order.
        pin_src = [""] * cell.num_inputs
        for i, leaf in enumerate(cut):
            pin_src[perm[i]] = leaf
        new = Node(name, "sop", fanins=pin_src, cover=cell.cover.copy())
        new.attrs["cell"] = cell
        mapped.nodes[name] = new
        emitted[name] = True
        nonlocal total_area, power_cost
        total_area += cell.area
        cells_used[cell.name] = cells_used.get(cell.name, 0) + 1
        power_cost += activity.get(name, 0.0) * cell.output_cap + \
            sum(activity.get(l, 0.0) * cell.input_cap for l in cut)

    roots = list(subject.outputs) + [l.data for l in subject.latches] + \
        [l.enable for l in subject.latches if l.enable]
    for root in roots:
        emit(root)
    del emit  # break the recursive closure's reference cycle
    mapped.set_outputs(subject.outputs)
    mapped._invalidate()
    mapped.check()
    worst_arrival = max((arrival[r] for r in roots), default=0.0)
    return MappingResult(mapped=mapped, objective=objective,
                         total_area=total_area, power_cost=power_cost,
                         arrival=worst_arrival, cells_used=cells_used)
