"""The benchmark's workloads: circuits, jobs and output checks.

A workload is a list of jobs.  Each job parses a BLIF netlist afresh
(as one CLI invocation would) and runs it through a public ``repro``
entry point.  Circuits come from the ``repro`` generators; the
workload seed picks the ``random_logic`` circuits and every simulation
seed.  ``repro`` is imported lazily, at call time, so that the set-up
measurement includes the import and so that the tracer's wrappers are
seen by the jobs.
"""

from __future__ import annotations

import importlib
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Simulation vectors of the flows: the ``optimize``/``flow`` CLI default.
FLOW_VECTORS = 1024
#: The sizing workload's pass list, as a ``flow --spec`` file would hold it.
SIZING_SPEC = {"name": "flow-sizing",
               "passes": ["extract", "map", "size"]}
SIGNOFF_POWER_VECTORS = 2048
SIGNOFF_GLITCH_VECTORS = 256
#: Vectors of the compiled-vs-event glitch cross-check (event is slow).
EVENT_CHECK_VECTORS = 48

#: Equivalence checks enumerate every input pattern up to this many
#: inputs, in chunks of 2**CHUNK_INPUTS patterns; wider circuits get
#: RANDOM_CHECK_VECTORS random patterns on a seed the flow did not use.
EXHAUSTIVE_INPUTS = 22
CHUNK_INPUTS = 16
RANDOM_CHECK_VECTORS = 4096
CHECK_SEED_OFFSET = 1_000_003


@dataclass
class Job:
    """One circuit of a workload, as BLIF text."""

    name: str
    blif: str


@dataclass
class Quality:
    """What a finished job delivered: its final power and size."""

    power_uw: float
    transistors: int
    saving: Optional[float] = None


# -- circuits ------------------------------------------------------------

def _dontcare_circuits(seed: int) -> List[Tuple[str, Any]]:
    from repro.logic import generators as g

    return [("rca8", g.ripple_carry_adder(8)),
            ("rca10", g.ripple_carry_adder(10)),
            ("cmp8", g.comparator(8)),
            ("cmp10", g.comparator(10)),
            ("mult4", g.array_multiplier(4))]


def _sizing_circuits(seed: int) -> List[Tuple[str, Any]]:
    from repro.logic import generators as g

    return [("mult6", g.array_multiplier(6)),
            ("cla16", g.carry_lookahead_adder(16)),
            ("rand16x150", g.random_logic(16, 150, seed=seed,
                                          name="rand16x150"))]


def _signoff_circuits(seed: int) -> List[Tuple[str, Any]]:
    from repro.logic import generators as g

    return [("mult16", g.array_multiplier(16)),
            ("cla64", g.carry_lookahead_adder(64)),
            ("wallace12", g.wallace_multiplier(12)),
            ("rand64x1000", g.random_logic(64, 1000, seed=seed,
                                           name="rand64x1000"))]


# -- jobs ----------------------------------------------------------------

def _parse(job: Job):
    from repro.logic.blif import read_blif

    return read_blif(job.blif)


def _run_dontcare(job: Job, seed: int):
    """``repro optimize``: the default low-power flow."""
    from repro.core.flow import low_power_flow

    return low_power_flow(_parse(job), num_vectors=FLOW_VECTORS,
                          seed=seed)


def _run_sizing(job: Job, seed: int):
    """``repro flow --spec``: extract, map and size."""
    from repro.core.flow import run_flow
    from repro.core.passes import FlowSpec

    spec = FlowSpec.from_dict(dict(SIZING_SPEC, num_vectors=FLOW_VECTORS,
                                   seed=seed))
    return run_flow(_parse(job), spec)


@dataclass
class Signoff:
    """Results of the read-only analyses of one netlist."""

    transistors: int
    power: Any      # PowerReport
    glitch: Any     # GlitchReport
    lint: Any       # LintReport


def _run_signoff(job: Job, seed: int) -> Signoff:
    """``repro report``, ``repro glitch`` and ``repro lint``."""
    from repro.analysis import Linter
    from repro.power.glitch import glitch_report
    from repro.power.model import average_power

    net = _parse(job)
    return Signoff(
        transistors=net.num_transistors(),
        power=average_power(net, num_vectors=SIGNOFF_POWER_VECTORS,
                            seed=seed),
        glitch=glitch_report(net, num_vectors=SIGNOFF_GLITCH_VECTORS,
                             seed=seed),
        lint=Linter().run(net))


# -- output checks (outside the timed region) ----------------------------

def _flow_failure(job: Job, result, seed: int) -> Optional[str]:
    for rec in result.trace.records:
        if rec.reason.startswith("exception:"):
            return f"pass {rec.name} rolled back: {rec.reason}"
    if not equivalent(_parse(job), result.final,
                      seed + CHECK_SEED_OFFSET):
        return "final network is not equivalent to its input"
    return None


def _flow_quality(result) -> Quality:
    final = result.stages[-1]
    return Quality(power_uw=final.report.total * 1e6,
                   transistors=final.transistors,
                   saving=result.total_saving)


def _signoff_failure(job: Job, result: Signoff,
                     seed: int) -> Optional[str]:
    if result.lint.errors:
        return f"lint reported {len(result.lint.errors)} errors"
    power = result.power
    terms = math.fsum(power.per_node.values()) + power.leakage
    if not math.isclose(terms, power.total, rel_tol=1e-9):
        return (f"power total {power.total!r} differs from the sum of "
                f"its terms {terms!r}")
    return None


def _signoff_quality(result: Signoff) -> Quality:
    return Quality(power_uw=result.power.total * 1e6,
                   transistors=result.transistors)


def event_glitch_failure(job: Job, seed: int) -> Optional[str]:
    """The compiled timed engine must count exactly what the event
    simulator counts (on a short stimulus: the event engine is slow)."""
    from repro.power.glitch import glitch_report

    reports = [glitch_report(_parse(job), num_vectors=EVENT_CHECK_VECTORS,
                             seed=seed, engine=engine)
               for engine in ("compiled", "event")]
    compiled, event = reports
    if compiled.timed != event.timed or \
            compiled.functional != event.functional:
        return "compiled and event glitch counts differ"
    return None


def _pattern_word(index: int, count: int) -> int:
    """Bit k is bit ``index`` of k, for k < count (a power of two)."""
    period = 1 << index
    word = ((1 << period) - 1) << period
    width = 2 * period
    while width < count:
        word |= word << width
        width *= 2
    return word & ((1 << count) - 1)


def equivalent(a, b, seed: int) -> bool:
    """Do ``a`` and ``b`` compute the same outputs (matched by name)?

    Uses the interpreted evaluator ``Network.evaluate_words``, not the
    compiled engine the flows use: exhaustive up to EXHAUSTIVE_INPUTS
    inputs, else RANDOM_CHECK_VECTORS random patterns from ``seed``.
    """
    inputs = sorted(a.inputs)
    if inputs != sorted(b.inputs) or set(a.outputs) != set(b.outputs):
        return False
    if len(inputs) <= EXHAUSTIVE_INPUTS:
        low, high = inputs[:CHUNK_INPUTS], inputs[CHUNK_INPUTS:]
        count = 1 << len(low)
        base = {name: _pattern_word(i, count)
                for i, name in enumerate(low)}
        stimuli = []
        for chunk in range(1 << len(high)):
            words = dict(base)
            for i, name in enumerate(high):
                words[name] = (1 << count) - 1 if chunk >> i & 1 else 0
            stimuli.append(words)
    else:
        count = RANDOM_CHECK_VECTORS
        rng = random.Random(seed)
        stimuli = [{name: rng.getrandbits(count) for name in inputs}]
    mask = (1 << count) - 1
    for words in stimuli:
        va = a.evaluate_words(words, mask)
        vb = b.evaluate_words(words, mask)
        if any(va[o] != vb[o] for o in a.outputs):
            return False
    return True


# -- the workloads -------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    circuits: Callable[[int], List[Tuple[str, Any]]]
    run: Callable[[Job, int], Any]
    failure: Callable[[Job, Any, int], Optional[str]]
    quality: Callable[[Any], Quality]
    #: modules the jobs import lazily; set-up imports them up front
    modules: Tuple[str, ...]
    #: per-layer metrics that must read 0 in a traced run: the layers
    #: this workload bypasses
    bypass: Tuple[str, ...] = ()
    #: cross-check the compiled glitch engine against the event engine
    event_check: bool = False


_FLOW_MODULES = ("repro.logic.blif", "repro.logic.generators",
                 "repro.core.flow", "repro.core.passes",
                 "repro.opt.adapters", "repro.opt.logic.dontcare",
                 "repro.opt.logic.kernels", "repro.opt.logic.mapping",
                 "repro.opt.circuit.sizing", "repro.logic.transform")

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="flow-dontcare",
        why="the optimize flow on small adders, comparators and a "
            "multiplier: time goes to BDDs and don't-cares",
        circuits=_dontcare_circuits, run=_run_dontcare,
        failure=_flow_failure, quality=_flow_quality,
        modules=_FLOW_MODULES),
    Workload(
        name="flow-sizing",
        why="extract-map-size flow on mult6, cla16 and a random circuit: "
            "time goes to sizing and STA, BDDs are never built",
        circuits=_sizing_circuits, run=_run_sizing,
        failure=_flow_failure, quality=_flow_quality,
        modules=_FLOW_MODULES,
        bypass=("bdd.build_calls", "opt.logic.odc_calls")),
    Workload(
        name="signoff",
        why="power, glitch and lint reports of large netlists: one-shot "
            "simulation and estimation, no optimization",
        circuits=_signoff_circuits, run=_run_signoff,
        failure=_signoff_failure, quality=_signoff_quality,
        modules=("repro.logic.blif", "repro.logic.generators",
                 "repro.analysis", "repro.analysis.structural",
                 "repro.analysis.power_rules", "repro.power.glitch",
                 "repro.power.model", "repro.power.activity"),
        bypass=("bdd.build_calls", "opt.logic.odc_calls",
                "opt.circuit.sta_calls"),
        event_check=True),
)}


def setup(workload: Workload, seed: int) -> List[Job]:
    """Import the workload's modules, generate its circuits, write
    their BLIF and parse it back once (a malformed writer fails here,
    not inside the timed region)."""
    for module in workload.modules:
        importlib.import_module(module)
    from repro.logic.blif import read_blif, write_blif

    jobs = [Job(name, write_blif(net))
            for name, net in workload.circuits(seed)]
    for job in jobs:
        read_blif(job.blif)
    return jobs
