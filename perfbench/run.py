#!/usr/bin/env python3
"""End-to-end benchmark of the repro low-power flows.

Run from the root of a checkout::

    python3 perfbench/run.py --workload flow-sizing --seed 1 \\
        --seconds 20 --trace 0

``--workload all`` runs every workload, each in its own process.  One
process is one closed-loop client: it sends the workload's jobs one
after the other, with no threads and no process pool.  With
``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it also runs one traced pass and
reports the per-layer metrics, and writes the spans to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from tracer import Tracer, per_layer_units  # noqa: E402
from workloads import (WORKLOADS, Job, Workload,  # noqa: E402
                       event_glitch_failure, setup)

#: Set-ups per run, each in a fresh interpreter; ``setup_s`` is their
#: median.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 120
#: About 12 ms of work on a 2.1 GHz Xeon core, timed every
#: SAMPLE_PERIOD_S seconds of a pass: ~2.5% of the pass.
REFERENCE_ITERATIONS = 30_000
SAMPLE_PERIOD_S = 0.5
WORKLOAD_TIMEOUT_S = 900


def _setup_probe(workload: Workload, seed: int) -> float:
    """Time one set-up in a fresh interpreter: import repro, generate
    the circuits, write and parse their BLIF."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload.name, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{out.stderr}")
    return float(out.stdout.split()[-1])


# -- host speed ------------------------------------------------------------

def reference_kernel_s() -> float:
    """Time a fixed pure-Python kernel (dict updates and integer
    arithmetic, no repro code)."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = i * 2654435761 & 4095
        table[key] = table.get(key, 0) + (i & 7)
        acc = (acc << 1 ^ i) & 0xFFFFFFFFFFFF
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while the timed jobs run.

    The host's speed drifts by tens of percent within seconds, so a
    pass's wall time is also reported in units of the reference kernel:
    the kernel is timed once when sampling starts and then from a
    SIGALRM handler every ``SAMPLE_PERIOD_S``.  ``paused_s`` is the time
    the handler took, which the caller subtracts from its wall time.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.paused_s = 0.0
        self._handler: Any = None

    def _sample(self, signum: int = 0, frame: Any = None) -> None:
        start = time.perf_counter()
        self.samples.append(reference_kernel_s())
        self.paused_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S,
                         SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)


# -- one pass over the job list -------------------------------------------

def run_pass(workload: Workload, jobs: List[Job], seed: int,
             tracer: Optional[Tracer] = None,
             sampler: Optional[SpeedSampler] = None
             ) -> Tuple[float, List[Any]]:
    """Run every job once; returns the wall time (less the sampler's
    pauses) and the results (an exception stands in for the result of
    a job that raised)."""
    results: List[Any] = []
    paused = sampler.paused_s if sampler is not None else 0.0
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        try:
            results.append(workload.run(job, seed))
        except Exception as exc:  # a failed job is counted, not fatal
            results.append(exc)
    wall = time.perf_counter() - start
    if sampler is not None:
        wall -= sampler.paused_s - paused
    return wall, results


def check_pass(workload: Workload, jobs: List[Job], results: List[Any],
               seed: int, event_check: bool = False
               ) -> Tuple[List[Optional[str]], List[Any]]:
    """Output checks of one pass: a failure reason (or None) and the
    delivered quality (or None) per job."""
    failures: List[Optional[str]] = []
    qualities: List[Any] = []
    event_job = seed % len(jobs) if event_check else -1
    for i, (job, result) in enumerate(zip(jobs, results)):
        if isinstance(result, Exception):
            failures.append("raised " + "".join(
                traceback.format_exception_only(type(result), result)
            ).strip())
            qualities.append(None)
            continue
        reason = workload.failure(job, result, seed)
        if reason is None and i == event_job:
            reason = event_glitch_failure(job, seed)
        failures.append(reason)
        qualities.append(workload.quality(result))
    return failures, qualities


class Tally:
    """Jobs attempted and failed over a run, with the first quality
    seen per job (every later pass must deliver the same)."""

    def __init__(self, jobs: List[Job]):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.quality: List[Any] = [None] * len(jobs)

    def add(self, failures: List[Optional[str]],
            qualities: List[Any]) -> None:
        for i, (job, reason, q) in enumerate(
                zip(self.jobs, failures, qualities)):
            if reason is None and q is not None:
                if self.quality[i] is None:
                    self.quality[i] = q
                elif self.quality[i] != q:
                    reason = "result differs from the first pass"
            self.attempted += 1
            if reason is not None:
                self.failed += 1
                print(f"FAILED {job.name}: {reason}", file=sys.stderr)

    def quality_metrics(self) -> Dict[str, float]:
        done = [q for q in self.quality if q is not None]
        out = {"power_final_uw": sum(q.power_uw for q in done),
               "transistors_final": sum(q.transistors for q in done)}
        savings = [q.saving for q in done if q.saving is not None]
        if savings:
            out["power_saving"] = sum(savings) / len(savings)
        return out


def measure(workload: Workload, jobs: List[Job], seed: int,
            seconds: float, tally: Tally
            ) -> Tuple[List[float], SpeedSampler]:
    """Repeat the job list until the next pass would overrun
    ``seconds`` of timed work (at least one pass); checks run after
    each pass, outside the timed region and unsampled.  Returns each
    pass's wall time and the host-speed samples taken during them."""
    walls: List[float] = []
    sampler = SpeedSampler()
    while True:
        with sampler:
            wall, results = run_pass(workload, jobs, seed,
                                     sampler=sampler)
        walls.append(wall)
        tally.add(*check_pass(workload, jobs, results, seed,
                              event_check=workload.event_check
                              and len(walls) == 1))
        if sum(walls) + wall > seconds:
            return walls, sampler


# -- reporting -------------------------------------------------------------

def _spec() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def _table(title: str, metrics: Dict[str, float],
           units: Dict[str, str]) -> None:
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:16.6g} {units.get(name, '')}")


def run_workload(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    spec = _spec()
    jobs = setup(workload, args.seed)
    tally = Tally(jobs)
    e2e: Dict[str, float] = {}
    if not args.trace:
        e2e["setup_s"] = statistics.median(
            _setup_probe(workload, args.seed)
            for _ in range(SETUP_REPEATS))
    walls, sampler = measure(workload, jobs, args.seed, args.seconds,
                             tally)
    e2e["wall_s"] = statistics.median(walls)
    e2e["wall_ref"] = e2e["wall_s"] / statistics.fmean(sampler.samples)
    e2e["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e.update(tally.quality_metrics())
    e2e["error_rate"] = tally.failed / tally.attempted
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update(wall_s="s", wall_ref="ref", power_saving="ratio",
                 error_rate="ratio")

    print(f"perfbench {workload.name}: seed {args.seed}, "
          f"{len(walls)} pass(es) of {len(jobs)} jobs "
          f"({', '.join(j.name for j in jobs)})")
    _table("end-to-end (tracing off; wall_s is the median pass)",
           e2e, units)
    bypassed = True
    layer: Dict[str, float] = {}
    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, results = run_pass(workload, jobs, args.seed,
                                            tracer)
        finally:
            tracer.uninstall()
        tally.add(*check_pass(workload, jobs, results, args.seed))
        layer = tracer.metrics(traced_wall, e2e["wall_s"])
        for name in workload.bypass:
            if layer[name] != 0:
                print(f"BYPASS VIOLATED {name} = {layer[name]} on "
                      f"{workload.name}", file=sys.stderr)
                bypassed = False
        OUT_DIR.mkdir(exist_ok=True)
        spans = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(str(spans))
        _table(f"per layer (one traced pass; spans in {spans})",
               layer, per_layer_units())
    correct = bypassed and tally.failed == 0

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "correct": correct, "attempted": tally.attempted,
                       "failed": tally.failed, "end_to_end": e2e,
                       "per_layer": layer}, f, indent=1, sort_keys=True)
    group = "per_layer" if args.trace else "end_to_end"
    values = layer if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[group]}
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process (own peak RSS)."""
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, Any] = {}
    for name in WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKLOAD_TIMEOUT_S)
        lines = out.stdout.splitlines()
        if out.returncode != 0 or not lines:
            print(f"error: workload {name} failed", file=sys.stderr)
            return out.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v
                        for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed work per run; a pass is never cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE.json",
                        help="also write every computed metric here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    if not (SRC / "repro" / "__init__.py").is_file() or \
            not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a repro checkout (needs "
              f"src/repro and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup(WORKLOADS[args.workload], args.seed)
        print(time.perf_counter() - start)
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
