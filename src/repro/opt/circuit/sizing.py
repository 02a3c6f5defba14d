"""Transistor sizing for power under a delay target (Section II-B;
[42], [3]).

Each gate carries a size factor (``node.attrs["size"]``).  Upsizing a
gate speeds it up (its drive resistance falls) but raises the load it
presents to its fanins and the energy it switches.  Loads and switched
capacitances come from :mod:`repro.power.model`, so a mapped gate is
priced by its cell data exactly as the power report prices it.  Sizing
starts with every gate at its largest size and shrinks gates until one
of the paper's two stop rules holds: the transistors are all minimum
size, or no gate with positive slack can shrink without breaking the
target.  ``SizingResult.moves`` counts one-step downsizes from the
start to the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.logic.netlist import Network
from repro.power.model import (PowerParameters, load_capacitance,
                               node_capacitance)


#: Default delay-model constants for unmapped gates.
INTRINSIC_DELAY = 0.5
DRIVE_PER_LOAD = 0.1


def _gate_delay(net: Network, name: str, sizes: Dict[str, float],
                params: PowerParameters) -> float:
    if net.nodes[name].is_source():
        return 0.0
    load = load_capacitance(net, name, params, sizes)
    return INTRINSIC_DELAY + DRIVE_PER_LOAD * load / sizes.get(name, 1.0)


class _Timing:
    """Static timing of one network under changing sizes.

    Holds what sizing reuses across its moves: the topological order
    with each node's position and the timing sinks.  Gate delays are
    computed once per sizing state and shared by the arrival and the
    required-time pass; a trial move re-times only the fanout cone of
    the gates whose delay it changes.
    """

    def __init__(self, net: Network, params: PowerParameters):
        self.net = net
        self.params = params
        self.order = net.topo_order()
        self.gates = [n for n in self.order if not net.nodes[n].is_source()]
        self.position = {name: i for i, name in enumerate(self.order)}
        self.sinks = list(net.outputs) + [l.data for l in net.latches]
        self._cones: Dict[str, List[str]] = {}

    def delays(self, sizes: Dict[str, float]) -> Dict[str, float]:
        return {name: _gate_delay(self.net, name, sizes, self.params)
                for name in self.gates}

    def arrivals(self, delay: Dict[str, float]) -> Dict[str, float]:
        nodes = self.net.nodes
        arr: Dict[str, float] = {}
        for name in self.order:
            node = nodes[name]
            if node.is_source():
                arr[name] = 0.0
            else:
                arr[name] = delay[name] + max(
                    (arr[fi] for fi in node.fanins), default=0.0)
        return arr

    def critical(self, arr: Dict[str, float]) -> float:
        return max((arr[s] for s in self.sinks), default=0.0)

    def slacks(self, arr: Dict[str, float], delay: Dict[str, float],
               target: float) -> Dict[str, float]:
        nodes = self.net.nodes
        req: Dict[str, float] = {name: float("inf") for name in nodes}
        for s in set(self.sinks):
            req[s] = min(req[s], target)
        for name in reversed(self.gates):
            required = req[name] - delay[name]
            for fi in nodes[name].fanins:
                req[fi] = min(req[fi], required)
        return {name: req[name] - arr[name] for name in nodes}

    def cone(self, gate: str) -> List[str]:
        """Gates whose arrival a resize of ``gate`` can change, in
        topological order: the transitive fanout of ``gate`` and of its
        gate fanins (their load includes its pins).  Purely structural,
        so cached."""
        cone = self._cones.get(gate)
        if cone is None:
            nodes, loads = self.net.nodes, self.net.loads()
            seeds = [gate] + [fi for fi in nodes[gate].fanins
                              if not nodes[fi].is_source()]
            seen = set(seeds)
            stack = list(seen)
            while stack:
                for reader, _times in loads[stack.pop()].readers:
                    if reader not in seen:
                        seen.add(reader)
                        stack.append(reader)
            cone = sorted(seen, key=self.position.__getitem__)
            self._cones[gate] = cone
        return cone

    def retime(self, arr: Dict[str, float], delay: Dict[str, float],
               sizes: Dict[str, float], gate: str
               ) -> Tuple[Dict[str, float], Dict[str, float]]:
        """Resize ``gate`` to ``sizes[gate]``, given the arrivals ``arr``
        and delays ``delay`` from before: returns the new delays of the
        gates whose delay changed and the new arrival times."""
        nodes = self.net.nodes
        moved = {name: _gate_delay(self.net, name, sizes, self.params)
                 for name in [gate] + nodes[gate].fanins
                 if not nodes[name].is_source()}
        new = dict(arr)
        for name in self.cone(gate):
            d = moved[name] if name in moved else delay[name]
            new[name] = d + max((new[fi] for fi in nodes[name].fanins),
                                default=0.0)
        return moved, new


def arrival_times(net: Network, sizes: Dict[str, float],
                  params: PowerParameters) -> Dict[str, float]:
    timing = _Timing(net, params)
    return timing.arrivals(timing.delays(sizes))


def critical_path_delay(net: Network,
                        sizes: Optional[Dict[str, float]] = None,
                        params: Optional[PowerParameters] = None) -> float:
    params = params or PowerParameters()
    sizes = sizes if sizes is not None else \
        {n: float(net.nodes[n].attrs.get("size", 1.0)) for n in net.nodes}
    arr = arrival_times(net, sizes, params)
    sinks = list(net.outputs) + [l.data for l in net.latches]
    return max((arr[s] for s in sinks), default=0.0)


def slacks(net: Network, sizes: Dict[str, float], target: float,
           params: PowerParameters) -> Dict[str, float]:
    """Per-node slack against a required output arrival time."""
    timing = _Timing(net, params)
    delay = timing.delays(sizes)
    return timing.slacks(timing.arrivals(delay), delay, target)


def switched_capacitance(net: Network, sizes: Dict[str, float],
                         activity: Dict[str, float],
                         params: PowerParameters) -> float:
    """Σ activity·C with size-scaled capacitances (the power objective)."""
    total = 0.0
    for name in net.nodes:
        total += node_capacitance(net, name, params, sizes) * \
            activity.get(name, 0.0)
    return total


@dataclass
class SizingResult:
    """Outcome of the sizing optimization."""

    sizes: Dict[str, float]
    delay_target: float
    delay_before: float
    delay_after: float
    power_before: float        # switched capacitance at initial sizing
    power_after: float
    moves: int = 0

    @property
    def power_saving(self) -> float:
        if self.power_before == 0.0:
            return 0.0
        return 1.0 - self.power_after / self.power_before


def size_for_power(net: Network, activity: Dict[str, float],
                   delay_target: Optional[float] = None,
                   allowed_sizes: Sequence[float] = (1.0, 2.0, 4.0),
                   params: Optional[PowerParameters] = None,
                   apply: bool = True) -> SizingResult:
    """Size every gate for least switched capacitance with the critical
    delay at most ``delay_target`` (default: the all-max delay +5%).

    All-minimum sizing is the result whenever it meets the target:
    switched capacitance never falls as a size grows, so nothing beats
    it.  Otherwise :func:`_walk` downsizes from all-max.  ``moves``
    counts the one-step downsizes from all-max to the result.  When
    ``apply`` is set the sizes are written to node attrs.
    """
    params = params or PowerParameters()
    ordered = sorted(set(allowed_sizes))
    sizes = {name: float(ordered[-1])
             for name, node in net.nodes.items() if not node.is_source()}
    delay_before = critical_path_delay(net, sizes, params)
    target = delay_target if delay_target is not None \
        else delay_before * 1.05
    power_before = switched_capacitance(net, sizes, activity, params)
    minimum = {name: float(ordered[0]) for name in sizes}
    delay_after = critical_path_delay(net, minimum, params)
    if delay_after <= target:
        sizes = minimum
    else:
        sizes = _walk(net, sizes, activity, target, ordered, params)
        delay_after = critical_path_delay(net, sizes, params)
    if apply:
        for name, s in sizes.items():
            net.nodes[name].attrs["size"] = s
    top = len(ordered) - 1
    return SizingResult(
        sizes=sizes, delay_target=target, delay_before=delay_before,
        delay_after=delay_after, power_before=power_before,
        power_after=switched_capacitance(net, sizes, activity, params),
        moves=sum(top - ordered.index(s) for s in sizes.values()))


def _walk(net: Network, sizes: Dict[str, float],
          activity: Dict[str, float], target: float,
          ordered: List[float], params: PowerParameters
          ) -> Dict[str, float]:
    """Greedy downsizing from ``sizes``: take the first move, largest
    slack first, that keeps ``target`` and lowers switched capacitance,
    until none does.  A candidate re-times only its cone and is judged
    on the terms it changes (its own capacitance and its fanins' pin
    loads); decisions match full recomputation, the reference kept in
    tests/test_load_model.py.  Sizes change no logic function, so one
    ``activity`` map serves the whole walk."""
    timing = _Timing(net, params)
    delay = timing.delays(sizes)
    arr = timing.arrivals(delay)
    while True:
        slk = timing.slacks(arr, delay, target)
        candidates = sorted(
            (name for name, s in slk.items()
             if s > 0 and name in sizes and sizes[name] > ordered[0]),
            key=lambda n: -slk[n])
        for name in candidates:
            trial = dict(sizes)
            trial[name] = float(ordered[ordered.index(sizes[name]) - 1])
            trial_delay, trial_arr = timing.retime(arr, delay, trial, name)
            if timing.critical(trial_arr) <= target:
                delta = 0.0
                for x in dict.fromkeys([name] + net.nodes[name].fanins):
                    act = activity.get(x, 0.0)
                    delta += node_capacitance(net, x, params, trial) * \
                        act - node_capacitance(net, x, params, sizes) * act
                if delta < 0.0:
                    sizes = trial
                    delay.update(trial_delay)
                    arr = trial_arr
                    break
        else:
            return sizes
