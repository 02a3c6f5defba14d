"""Outside-in layer tracing for the flow benchmark.

The benchmark attributes time to the layers of ``repro`` without any
change to the library: :class:`Tracer` replaces selected *public*
functions and methods with wrappers that record a span (name, start,
end, parent span, job id) and a few counts.  A function is replaced at
every ``repro`` module that binds its name (``from x import f`` copies
the binding), and restored afterwards.  Hot private helpers such as
``BDD._ite`` are deliberately never wrapped, so the overhead stays
small; the per-layer numbers therefore read "time inside calls of this
layer's public entry points".

Self time of a span is its duration minus the durations of its child
spans (one thread, so children never overlap); a layer's self time is
the sum over its spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, attribute or ``Class.method``, span name).  The layer of a
#: span is its name without the last component.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.logic.blif", "read_blif", "logic.read_blif"),
    ("repro.logic.transform", "to_sop_network", "logic.to_sop"),
    ("repro.core.passes", "run_network_passes", "core.run_passes"),
    ("repro.core.passes", "measure", "core.measure"),
    ("repro.opt.logic.dontcare", "dontcare_power_optimization",
     "opt.logic.dontcare"),
    ("repro.opt.logic.dontcare", "observability_dont_cares",
     "opt.logic.odc"),
    ("repro.opt.logic.dontcare", "controllability_dont_cares",
     "opt.logic.cdc"),
    ("repro.opt.logic.kernels", "extract_kernels", "opt.logic.extract"),
    ("repro.opt.logic.mapping", "tech_map", "opt.logic.tech_map"),
    ("repro.bdd.circuit", "network_bdds", "bdd.build"),
    ("repro.opt.circuit.sizing", "size_for_power", "opt.circuit.size"),
    ("repro.opt.circuit.sizing", "arrival_times", "opt.circuit.sta"),
    ("repro.opt.circuit.sizing", "switched_capacitance",
     "opt.circuit.switched_cap"),
    ("repro.power.activity", "activity_from_simulation",
     "power.activity"),
    ("repro.power.model", "power_report", "power.report"),
    ("repro.power.glitch", "glitch_report", "power.glitch"),
    ("repro.sim.compiled", "compile_network", "sim.compile"),
    ("repro.sim.compiled", "get_compiled", "sim.compile_lookup"),
    ("repro.sim.compiled", "CompiledNetwork.evaluate_words",
     "sim.evaluate"),
    ("repro.sim.compiled", "CompiledNetwork.evaluate_incremental",
     "sim.evaluate_incremental"),
    ("repro.sim.timed", "timed_transitions_from_words", "sim.timed"),
    ("repro.sim.functional", "verify_equivalence", "sim.verify"),
    ("repro.analysis.linter", "Linter.run", "analysis.lint"),
)

#: Call-count metrics published under the names the docs use.
CALL_NAMES = {"sim.compile": "sim.compiles",
              "sim.compile_lookup": "sim.compile_lookups"}

PASS_NAMES = ("dontcare", "extract", "map", "size")
OUTCOMES = ("adopted", "rolled_back", "skipped")


def layer_of(span: str) -> str:
    return span.rsplit(".", 1)[0]


LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(
    layer_of(span) for _m, _a, span in SPANS))


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the tracer computes, with its unit."""
    units: Dict[str, str] = {}
    for _module, _attr, span in SPANS:
        units[f"{span}_s"] = "s"
        units[CALL_NAMES.get(span, f"{span}_calls")] = "count"
    for name in PASS_NAMES:
        units[f"core.pass.{name}_s"] = "s"
    for outcome in OUTCOMES:
        units[f"core.{outcome}"] = "count"
    units["core.adopt_ratio"] = "ratio"
    units["bdd.nodes"] = "count"
    units["sim.compile_hit_ratio"] = "ratio"
    units["sim.node_vectors_per_s"] = "1/s"
    units["analysis.diagnostics"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.coverage"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


# -- count hooks: read from a wrapped call's arguments and result -------

def _bdd_nodes(tracer: "Tracer", args, kwargs, result) -> None:
    # Only managers this call created (no ``bdd`` argument passed).
    passed = args[1] if len(args) > 1 else kwargs.get("bdd")
    if passed is None and result:
        tracer.counts["bdd.nodes"] += \
            next(iter(result.values())).bdd.num_nodes()


def _pass_records(tracer: "Tracer", args, kwargs, result) -> None:
    _final, trace, _outcomes = result
    for rec in trace.records:
        tracer.counts[f"core.pass.{rec.name}_s"] += rec.wall_s
        tracer.counts[f"core.{rec.outcome}"] += 1


def _node_vectors(tracer: "Tracer", args, kwargs, result) -> None:
    program, _words, mask = args[:3]
    tracer.counts["sim.node_vectors"] += \
        len(program.ops) * mask.bit_length()


def _diagnostics(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.counts["analysis.diagnostics"] += len(result.diagnostics)


HOOKS: Dict[str, Callable] = {
    "bdd.build": _bdd_nodes,
    "core.run_passes": _pass_records,
    "sim.evaluate": _node_vectors,
    "analysis.lint": _diagnostics,
}


def import_all_repro() -> None:
    """Import every ``repro`` module, so that every binding of a wrapped
    name exists before wrapping and no later import captures a wrapper
    that outlives :meth:`Tracer.uninstall`."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self) -> None:
        #: (span id, name, start, end, parent span id or -1, job id)
        self.spans: List[Tuple[int, str, float, float, int, str]] = []
        self.counts: Counter = Counter()
        self.job = ""
        self._stack: List[int] = []
        self._next_id = 0
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        import_all_repro()
        for module, attr, span in SPANS:
            mod = importlib.import_module(module)
            hook = HOOKS.get(span)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[method]
                self._patch(owner, method,
                            self._wrap(original, span, hook))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span, hook)
            for name, m in list(sys.modules.items()):
                if (name == "repro" or name.startswith("repro.")) and \
                        m is not None and \
                        m.__dict__.get(attr) is original:
                    self._patch(m, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, fn: Callable, span: str,
              hook: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, span, start, end, parent, self.job))
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    # -- analysis -------------------------------------------------------

    def metrics(self, wall_s: float, untraced_wall_s: float
                ) -> Dict[str, float]:
        """Per-layer metrics of everything recorded; ``wall_s`` is the
        traced pass, ``untraced_wall_s`` the same pass untraced."""
        out: Dict[str, float] = {name: 0.0 for name in per_layer_units()}
        child_s: Dict[int, float] = Counter()
        for _sid, _name, start, end, parent, _job in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        covered = 0.0
        for sid, name, start, end, parent, _job in self.spans:
            duration = end - start
            out[f"{name}_s"] += duration
            out[CALL_NAMES.get(name, f"{name}_calls")] += 1
            out[f"{layer_of(name)}.self_s"] += duration - child_s[sid]
            if parent < 0:
                covered += duration
        for key, value in self.counts.items():
            if key in out:
                out[key] = value
        decided = sum(out[f"core.{o}"] for o in OUTCOMES)
        out["core.adopt_ratio"] = \
            out["core.adopted"] / decided if decided else 0.0
        lookups = out["sim.compile_lookups"]
        out["sim.compile_hit_ratio"] = \
            1.0 - out["sim.compiles"] / lookups if lookups else 0.0
        evaluate_s = out["sim.evaluate_s"]
        out["sim.node_vectors_per_s"] = \
            self.counts["sim.node_vectors"] / evaluate_s \
            if evaluate_s else 0.0
        out["trace.coverage"] = covered / wall_s if wall_s else 0.0
        out["trace.overhead"] = wall_s / untraced_wall_s - 1.0 \
            if untraced_wall_s else 0.0
        for name, unit in per_layer_units().items():
            if unit == "count":
                out[name] = int(out[name])
        return out

    def write(self, path: str) -> None:
        """Write the recorded spans as JSON lines."""
        with open(path, "w") as f:
            for sid, name, start, end, parent, job in self.spans:
                f.write(json.dumps(
                    {"id": sid, "name": name, "start": start,
                     "end": end, "parent": parent, "job": job}) + "\n")
