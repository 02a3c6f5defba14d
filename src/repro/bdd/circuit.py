"""Building BDDs for netlist nodes (global functions over PIs/latches)."""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.bdd.bdd import BDD, BDDFunction
from repro.logic.gates import GateType
from repro.logic.netlist import Network, Node
from repro.logic.transform import node_cover


def structural_order(net: Network) -> List[str]:
    """Sources (primary inputs and latch outputs) in fanin-DFS order.

    A depth-first walk from the primary outputs, then the latch data
    pins, lists each source when first reached, so the inputs one
    output cone reads sit next to each other (Malik et al., ICCAD'88):
    ``a0 b0 a1 b1 ...`` for an adder or comparator, whose BDDs are
    exponential in declaration order ``a0..a7 b0..b7``.  Sources no
    root reaches follow in declaration order.  It is the order of every
    manager :func:`network_bdds` creates.
    """
    order: List[str] = []
    seen: Set[str] = set()
    roots = list(net.outputs) + [latch.data for latch in net.latches]
    for root in roots:
        stack = [root]
        while stack:
            name = stack.pop()
            node = net.nodes.get(name)
            if name in seen or node is None:
                continue
            seen.add(name)
            if node.is_source():
                order.append(name)
            else:
                stack.extend(reversed(node.fanins))
    order.extend(name for name, node in net.nodes.items()
                 if node.is_source() and name not in seen)
    return order


def bdd_to_cover(func: BDDFunction, var_order):
    """Enumerate a BDD's paths-to-TRUE as an SOP cover over ``var_order``
    (every support variable of ``func`` must appear in ``var_order``)."""
    from repro.logic.cube import Cube
    from repro.logic.sop import Cover

    bdd = func.bdd
    index = {name: i for i, name in enumerate(var_order)}
    n = len(var_order)
    cubes = []

    def walk(node: int, lits) -> None:
        if node == BDD.FALSE:
            return
        if node == BDD.TRUE:
            cubes.append(Cube.from_literals(n, lits))
            return
        name = bdd.var_names[bdd._level[node]]
        var = index[name]
        walk(bdd._lo[node], lits + [(var, 0)])
        walk(bdd._hi[node], lits + [(var, 1)])

    walk(func.node, [])
    del walk  # break the recursive closure's reference cycle
    return Cover(n, cubes).sccc()


def node_function(manager: BDD, node: Node,
                  fanin_funcs: Sequence[BDDFunction]) -> BDDFunction:
    """BDD of one internal node from the BDDs of its fanins."""
    if node.kind == "gate" and node.gtype is GateType.CONST0:
        return manager.false
    if node.kind == "gate" and node.gtype is GateType.CONST1:
        return manager.true
    acc = manager.false
    for cube in node_cover(node):
        term = manager.true
        for var, phase in cube.literals():
            lit = fanin_funcs[var]
            term = term & (lit if phase else ~lit)
            if term.is_false:
                break
        acc = acc | term
        if acc.is_true:
            break
    return acc


def network_bdds(net: Network, bdd: Optional[BDD] = None
                 ) -> Dict[str, BDDFunction]:
    """Global BDD of every node over primary inputs and latch outputs.

    Latch outputs are treated as free variables (combinational view).
    Without ``bdd`` a new manager is created, its variables in
    :func:`structural_order`; with it, sources the manager lacks are
    appended.  Raises :class:`~repro.bdd.bdd.BDDBudgetExceeded` when the
    manager would outgrow :data:`~repro.bdd.bdd.NODE_BUDGET` nodes.
    """
    manager = bdd if bdd is not None else BDD(structural_order(net))
    funcs: Dict[str, BDDFunction] = {}
    for name in net.topo_order():
        node = net.nodes[name]
        if node.is_source():
            funcs[name] = manager.var(name)
        else:
            funcs[name] = node_function(
                manager, node, [funcs[fi] for fi in node.fanins])
    return funcs
