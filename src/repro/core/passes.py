"""Fail-soft pass manager for the optimization flows.

The engine underneath the flows of :mod:`repro.core.flow`:

* every optimization runs as a registered :class:`Pass` on a **trial
  copy** of the working network;
* the result is verified (random-simulation equivalence against the
  flow's original, plus an optional power-regression tolerance) and
  either **adopted** or **rolled back** — exceptions, equivalence
  breaks and power regressions all degrade to a ``rolled_back`` /
  ``skipped`` trace entry while the remaining passes still run
  (``strict=True`` preserves the old raise-on-failure behaviour);
* every pass emits a structured :class:`TraceRecord` (wall time, power
  before/after, gate/transistor/depth deltas, verification strength,
  outcome, reason) collected into a :class:`FlowTrace` that serializes
  to JSONL, and leaves a :class:`FlowStage` snapshot of the adopted
  state in the returned :class:`FlowResult`.

Concrete pass adapters live in :mod:`repro.opt.adapters`; declarative
flows (pass list + per-pass params, loadable from JSON) are described
by :class:`FlowSpec` and driven by ``repro flow --spec``.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from typing import (Any, Callable, Dict, FrozenSet, List, Optional,
                    Sequence, Tuple)

from repro.library.cells import Library
from repro.logic.netlist import Network
from repro.power.activity import activity_from_simulation
from repro.power.model import (PowerParameters, PowerReport,
                               power_report)
from repro.sim.functional import verify_equivalence

# -- outcomes ------------------------------------------------------------

ADOPTED = "adopted"
SKIPPED = "skipped"
ROLLED_BACK = "rolled_back"

#: JSONL fields that vary run to run and are excluded from fingerprints.
VOLATILE_TRACE_FIELDS = ("wall_s",)

TRACE_SCHEMA = 1


class FlowError(RuntimeError):
    """A pass failed while the engine was running in strict mode."""


# -- context and pass description ---------------------------------------

@dataclass
class PassContext:
    """Shared, read-only state every pass sees.

    ``original`` is the flow's input network — the reference for
    equivalence checking.  ``num_vectors``/``seed`` parameterize every
    simulation a pass performs, so one (vectors, seed) pair makes the
    whole flow deterministic.
    """

    original: Network
    library: Optional[Library] = None
    input_probs: Optional[Dict[str, float]] = None
    params: Optional[PowerParameters] = None
    num_vectors: int = 1024
    seed: int = 0
    check_equivalence: bool = True
    #: run the structural invariant linter on every candidate network
    lint: bool = False

    @property
    def verify_vectors(self) -> int:
        """Equivalence-check strength, scaled with the simulation
        effort: high-effort runs must not verify at toy strength."""
        return max(256, self.num_vectors // 4)


#: ``apply(trial, ctx, params)`` mutates ``trial`` in place or returns a
#: replacement network (``None`` means "mutated in place").
PassApply = Callable[[Network, PassContext, Dict[str, Any]],
                     Optional[Network]]


class PassSkipped(Exception):
    """Raised by a pass's ``apply`` that declines to run; the engine
    records ``skipped`` with ``reason`` and keeps the adopted state."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class Pass:
    """One registered optimization step."""

    name: str
    apply: PassApply
    params: Dict[str, Any] = field(default_factory=dict)
    #: equivalence-verify the candidate (combinational networks only)
    verify: bool = True
    #: max tolerated relative power increase (``None``: no power gate;
    #: ``0.0``: reject any regression)
    max_power_regression: Optional[float] = None


# -- pass registry -------------------------------------------------------

PassFactory = Callable[[Dict[str, Any]], Pass]

#: name -> (factory, the per-pass params the factory reads)
_REGISTRY: Dict[str, Tuple[PassFactory, FrozenSet[str]]] = {}


def register_pass(name: str, params: Sequence[str] = ()):
    """Decorator: register ``factory(params) -> Pass`` under ``name``.
    ``params`` names the per-pass parameters the factory reads; every
    pass also takes the engine's ``max_power_regression``."""

    def deco(factory: PassFactory):
        _REGISTRY[name] = (factory, frozenset(params))
        return factory

    return deco


def _ensure_adapters() -> None:
    # The standard adapters register themselves on import; imported
    # lazily to keep core free of an opt-layer import cycle.
    import repro.opt.adapters  # noqa: F401


def available_passes() -> List[str]:
    _ensure_adapters()
    return sorted(_REGISTRY)


def make_pass(name: str,
              params: Optional[Dict[str, Any]] = None) -> Pass:
    """Instantiate a registered pass with per-pass parameters; a
    parameter the pass does not read is a ``ValueError``."""
    _ensure_adapters()
    try:
        factory, known = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown pass {name!r}; available: "
            f"{', '.join(sorted(_REGISTRY))}") from None
    params = dict(params or {})
    known = known | {"max_power_regression"}
    unknown = sorted(set(params) - known)
    if unknown:
        raise ValueError(
            f"pass {name!r}: unknown params {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}")
    p = factory(params)
    p.max_power_regression = params.get("max_power_regression")
    return p


# -- trace ---------------------------------------------------------------

@dataclass
class TraceRecord:
    """What one pass (or stage) did to the design."""

    index: int
    name: str
    outcome: str                 # adopted | skipped | rolled_back
    reason: str = ""             # "" for adopted
    wall_s: float = 0.0
    power_before: Optional[float] = None
    power_after: Optional[float] = None
    gates_before: Optional[int] = None
    gates_after: Optional[int] = None
    transistors_before: Optional[int] = None
    transistors_after: Optional[int] = None
    depth_before: Optional[float] = None
    depth_after: Optional[float] = None
    verify_vectors: int = 0      # 0: equivalence was not checked
    #: invariant-lint error count on the candidate (None: lint off)
    lint_errors: Optional[int] = None
    #: the offending diagnostics (JSON form) when lint_errors > 0
    lint: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        d = asdict(self)
        d["type"] = "pass"
        return d

    @classmethod
    def from_json(cls, d: Dict[str, Any]) -> "TraceRecord":
        d = {k: v for k, v in d.items() if k != "type"}
        return cls(**d)


@dataclass
class FlowTrace:
    """Ordered trace of a whole flow, serializable to JSONL.

    The JSONL form is one header line (``type: "flow"`` — flow name,
    simulation parameters, schema version) followed by one ``type:
    "pass"`` line per :class:`TraceRecord`.
    """

    flow: str = "flow"
    num_vectors: int = 0
    seed: int = 0
    strict: bool = False
    records: List[TraceRecord] = field(default_factory=list)

    def add(self, record: TraceRecord) -> TraceRecord:
        self.records.append(record)
        return record

    def outcomes(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for r in self.records:
            counts[r.outcome] = counts.get(r.outcome, 0) + 1
        return counts

    def to_jsonl(self) -> str:
        header = {"type": "flow", "schema": TRACE_SCHEMA,
                  "flow": self.flow, "num_vectors": self.num_vectors,
                  "seed": self.seed, "strict": self.strict}
        lines = [json.dumps(header, sort_keys=True)]
        lines.extend(json.dumps(r.to_json(), sort_keys=True)
                     for r in self.records)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "FlowTrace":
        trace = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            kind = d.get("type")
            if kind == "flow":
                trace.flow = d.get("flow", "flow")
                trace.num_vectors = int(d.get("num_vectors", 0))
                trace.seed = int(d.get("seed", 0))
                trace.strict = bool(d.get("strict", False))
            elif kind == "pass":
                trace.records.append(TraceRecord.from_json(d))
            else:
                raise ValueError(
                    f"unknown trace record type {kind!r}")
        return trace

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_jsonl())

    @classmethod
    def load(cls, path: str) -> "FlowTrace":
        with open(path) as f:
            return cls.from_jsonl(f.read())

    def fingerprint(self) -> str:
        """SHA-256 over the JSONL with volatile fields (wall time)
        zeroed — equal across deterministic reruns."""
        lines = []
        for line in self.to_jsonl().splitlines():
            d = json.loads(line)
            for key in VOLATILE_TRACE_FIELDS:
                d.pop(key, None)
            lines.append(json.dumps(d, sort_keys=True))
        blob = "\n".join(lines).encode()
        return hashlib.sha256(blob).hexdigest()


# -- results -------------------------------------------------------------

@dataclass
class FlowStage:
    """Power/size snapshot of the adopted network after one pass.

    ``outcome`` records what the engine did: ``adopted`` (the pass's
    result was kept), ``skipped`` (the pass raised :class:`PassSkipped`
    — e.g. ``bdd-budget``), or
    ``rolled_back`` (the pass failed; the snapshot is of the unchanged
    adopted state).  The flow's first stage, ``initial``, is the input
    as the engine received it."""

    name: str
    report: PowerReport
    gates: int
    transistors: int
    depth: float
    outcome: str = ADOPTED
    reason: str = ""


@dataclass
class FlowResult:
    """History of a whole flow: the ``initial`` stage, then one stage
    per pass whatever its outcome, the final network, and the trace."""

    stages: List[FlowStage] = field(default_factory=list)
    final: Optional[Network] = None
    trace: Optional[FlowTrace] = None

    def __iter__(self):
        # perfbench's tracer unpacks the engine's return value as
        # ``(final, trace, stages)``.
        return iter((self.final, self.trace, self.stages))

    @property
    def total_saving(self) -> float:
        if len(self.stages) < 2:
            return 0.0
        first = self.stages[0].report.total
        last = self.stages[-1].report.total
        return 1.0 - last / first if first else 0.0

    def summary(self) -> str:
        from repro.core.report import format_table

        rows = []
        base = self.stages[0].report.total if self.stages else 0.0
        for s in self.stages:
            outcome = s.outcome if s.outcome == ADOPTED else \
                (f"{s.outcome}: {s.reason}" if s.reason else s.outcome)
            rows.append([s.name, outcome, s.gates, s.transistors,
                         s.depth, s.report.total * 1e6,
                         (1.0 - s.report.total / base) if base
                         else 0.0])
        return format_table(
            ["stage", "outcome", "gates", "transistors", "depth",
             "power (uW)", "saving"], rows)


def measure(net: Network, ctx: PassContext) -> FlowStage:
    """Snapshot ``net`` as an ``initial`` stage."""
    activity, _ = activity_from_simulation(net, ctx.num_vectors,
                                           ctx.seed, ctx.input_probs)
    rep = power_report(net, activity, ctx.params)
    return FlowStage(name="initial", report=rep, gates=net.num_gates(),
                     transistors=net.num_transistors(),
                     depth=net.depth())


# -- the engine ----------------------------------------------------------

class _Rejected(Exception):
    """A verification gate rejected a pass's candidate; ``reason`` is
    the trace reason (``equivalence``, ``lint``, ``power-regression``)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


def run_network_passes(net: Network, passes: Sequence[Pass],
                       ctx: PassContext, strict: bool = False,
                       trace: Optional[FlowTrace] = None
                       ) -> FlowResult:
    """Run ``passes`` over ``net`` with trial-copy/adopt semantics.

    ``net`` itself is never mutated: each pass runs on a copy of the
    current working network, and the copy is adopted only when the pass
    succeeds, verifies, and clears its power gate.  Returns a
    :class:`FlowResult` whose stages are ``initial`` plus one
    adopted-state snapshot per pass (unchanged when the pass was
    skipped or rolled back).

    With ``strict=True`` any failure raises :class:`FlowError` (or the
    original exception) after recording it, matching the legacy flow.
    """
    trace = trace if trace is not None else FlowTrace(
        num_vectors=ctx.num_vectors, seed=ctx.seed, strict=strict)
    work = net
    if ctx.lint:
        entry_errors = _lint_errors(work)
        if entry_errors:
            raise FlowError(
                "input network fails invariant lint: "
                + "; ".join(d.render() for d in entry_errors[:3]))
    current = measure(work, ctx)
    result = FlowResult(stages=[current], trace=trace)

    for p in passes:
        rec = TraceRecord(
            index=len(trace.records), name=p.name, outcome=ADOPTED,
            power_before=current.report.total,
            power_after=current.report.total,
            gates_before=current.gates, gates_after=current.gates,
            transistors_before=current.transistors,
            transistors_after=current.transistors,
            depth_before=current.depth, depth_after=current.depth)
        start = time.perf_counter()
        failure: Optional[Exception] = None

        try:
            candidate, after = _trial(p, work, current, ctx, rec)
        except PassSkipped as exc:
            # The trial copy is dropped; the adopted state is untouched.
            rec.outcome, rec.reason = SKIPPED, exc.reason
        except _Rejected as exc:
            rec.outcome, rec.reason = ROLLED_BACK, exc.reason
            failure = FlowError(str(exc))
        except Exception as exc:
            rec.outcome = ROLLED_BACK
            rec.reason = f"exception: {type(exc).__name__}: {exc}"
            # A partial mutation died with the trial copy; the
            # adopted state is untouched.
            rec.power_after = rec.power_before
            rec.gates_after = rec.gates_before
            rec.transistors_after = rec.transistors_before
            rec.depth_after = rec.depth_before
            failure = exc
        else:
            work, current = candidate, after

        rec.wall_s = time.perf_counter() - start
        trace.add(rec)
        result.stages.append(replace(current, name=p.name,
                                     outcome=rec.outcome,
                                     reason=rec.reason))
        if strict and failure is not None:
            raise failure

    result.final = work
    return result


def _trial(p: Pass, work: Network, current: FlowStage,
           ctx: PassContext, rec: TraceRecord
           ) -> Tuple[Network, FlowStage]:
    """Run ``p`` on a copy of ``work`` and pass it through the gates,
    filling ``rec``; raises :class:`_Rejected` when a gate fails."""
    trial = work.copy()
    replacement = p.apply(trial, ctx, p.params)
    candidate = replacement if replacement is not None else trial

    if p.verify and ctx.check_equivalence and \
            not candidate.latches and not ctx.original.latches:
        rec.verify_vectors = ctx.verify_vectors
        if not verify_equivalence(ctx.original, candidate,
                                  rec.verify_vectors, ctx.seed):
            raise _Rejected("equivalence",
                            f"stage {p.name!r} broke equivalence")

    if ctx.lint:
        errors = _lint_errors(candidate)
        rec.lint_errors = len(errors)
        if errors:
            rec.lint = [d.to_json() for d in errors]
            raise _Rejected(
                "lint",
                f"stage {p.name!r} broke a structural invariant: "
                + "; ".join(d.render() for d in errors[:3]))

    after = measure(candidate, ctx)
    rec.power_after = after.report.total
    rec.gates_after = after.gates
    rec.transistors_after = after.transistors
    rec.depth_after = after.depth

    tol = p.max_power_regression
    if tol is not None and current.report.total and \
            after.report.total > current.report.total * (1.0 + tol):
        raise _Rejected(
            "power-regression",
            f"stage {p.name!r} regressed power "
            f"{current.report.total:.4g} -> {after.report.total:.4g} W "
            f"(tolerance {tol:+.1%})")
    return candidate, after


def _lint_errors(net: Network):
    """Error-severity invariant diagnostics (lazy analysis import)."""
    from repro.analysis import check_invariants
    return check_invariants(net)


class StageRunner:
    """Fail-soft execution of arbitrary (non-network) flow stages.

    The sequential flow's stages transform STGs and encodings, not
    networks, so trial-copy/verify does not apply — but the same trace
    discipline does.  ``run`` executes a stage, records it, and on
    failure returns the ``fallback`` value (recording ``rolled_back``)
    instead of aborting the flow; ``strict=True`` re-raises.
    """

    def __init__(self, trace: FlowTrace, strict: bool = False):
        self.trace = trace
        self.strict = strict

    def run(self, name: str, fn: Callable[[], Any],
            fallback: Any = None):
        rec = TraceRecord(index=len(self.trace.records), name=name,
                          outcome=ADOPTED)
        start = time.perf_counter()
        try:
            value = fn()
        except Exception as exc:
            rec.outcome = ROLLED_BACK
            rec.reason = f"exception: {type(exc).__name__}: {exc}"
            rec.wall_s = time.perf_counter() - start
            self.trace.add(rec)
            if self.strict:
                raise
            return fallback() if callable(fallback) else fallback
        rec.wall_s = time.perf_counter() - start
        self.trace.add(rec)
        return value


# -- declarative flow specs ---------------------------------------------

@dataclass
class FlowSpec:
    """A flow as data: ordered pass names with per-pass parameters.

    JSON shape::

        {"name": "my-flow", "num_vectors": 512, "seed": 0,
         "strict": false,
         "passes": ["extract",
                    {"pass": "map", "params": {"objective": "power"}}]}

    A string entry is a pass with default parameters.
    """

    name: str = "flow"
    passes: List[Tuple[str, Dict[str, Any]]] = field(
        default_factory=list)
    num_vectors: int = 1024
    seed: int = 0
    strict: bool = False
    check_equivalence: bool = True
    #: invariant-lint every candidate network (see PassContext.lint)
    strict_lint: bool = False

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "FlowSpec":
        if not isinstance(d, dict):
            raise ValueError("flow spec must be a JSON object")
        known = {f.name for f in fields(cls)}
        for key in d:
            if key not in known:
                raise ValueError(
                    f"unknown flow spec key {key!r}; known: "
                    f"{', '.join(sorted(known))}")
        entries = d.get("passes")
        if not isinstance(entries, list) or not entries:
            raise ValueError(
                "flow spec needs a non-empty 'passes' list")
        passes: List[Tuple[str, Dict[str, Any]]] = []
        for entry in entries:
            if isinstance(entry, str):
                passes.append((entry, {}))
            elif isinstance(entry, dict) and "pass" in entry:
                params = entry.get("params") or {}
                if not isinstance(params, dict):
                    raise ValueError(
                        f"pass {entry['pass']!r}: params must be an "
                        f"object")
                passes.append((str(entry["pass"]), dict(params)))
            else:
                raise ValueError(
                    f"bad pass entry {entry!r}: expected a name or "
                    f"{{'pass': ..., 'params': {{...}}}}")
        num_vectors = int(d.get("num_vectors", 1024))
        if num_vectors < 1:
            raise ValueError(
                f"num_vectors must be at least 1, got {num_vectors}")
        return cls(name=str(d.get("name", "flow")), passes=passes,
                   num_vectors=num_vectors,
                   seed=int(d.get("seed", 0)),
                   strict=bool(d.get("strict", False)),
                   check_equivalence=bool(
                       d.get("check_equivalence", True)),
                   strict_lint=bool(d.get("strict_lint", False)))

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name,
                "num_vectors": self.num_vectors, "seed": self.seed,
                "strict": self.strict,
                "check_equivalence": self.check_equivalence,
                "strict_lint": self.strict_lint,
                "passes": [{"pass": n, "params": p}
                           for n, p in self.passes]}

    def build(self) -> List[Pass]:
        return [make_pass(name, params)
                for name, params in self.passes]


def load_flow_spec(path: str) -> FlowSpec:
    with open(path) as f:
        try:
            data = json.load(f)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") \
                from None
    return FlowSpec.from_dict(data)
