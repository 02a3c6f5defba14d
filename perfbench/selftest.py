#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

For each workload: two traced runs at the same seed must give identical
count metrics (every per-layer metric that is not a time or derived
from one) and identical ``power_saving``, ``power_final_uw`` and
``transistors_final``; a run at a second seed must finish correct with
``error_rate == 0``.  Run from the root of a checkout::

    python3 perfbench/selftest.py [--workload NAME ...] [--seed N]

Exits 0 when every check holds.  Takes a few minutes: each flow run
makes one untraced and one traced pass.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import per_layer_units  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

QUALITY = ("power_saving", "power_final_uw", "transistors_final")


def _run(workload: str, seed: int, trace: int, out: Path) -> Dict[str, Any]:
    subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--out", str(out)],
        cwd=HERE.parent, check=True, stdout=subprocess.DEVNULL,
        timeout=900)
    with open(out) as f:
        return json.load(f)


def deterministic_metrics(result: Dict[str, Any]) -> Dict[str, Any]:
    units = per_layer_units()
    counts = {name: value for name, value in result["per_layer"].items()
              if units[name] not in ("s", "1/s")
              and not name.startswith("trace.")}
    counts.update({name: result["end_to_end"][name] for name in QUALITY
                   if name in result["end_to_end"]})
    return counts


def check(workload: str, seed: int, tmp: Path) -> Tuple[int, List[str]]:
    problems = []
    first, second = (
        deterministic_metrics(_run(workload, seed, 1, tmp / f"{i}.json"))
        for i in (1, 2))
    for name in sorted(first):
        if first[name] != second.get(name):
            problems.append(f"{name}: {first[name]} != {second.get(name)}")
    other = _run(workload, seed + 1, 0, tmp / "other.json")
    if not other["correct"] or other["end_to_end"]["error_rate"] != 0:
        problems.append(f"seed {seed + 1}: correct={other['correct']}, "
                        f"error_rate={other['end_to_end']['error_rate']}")
    return len(first), problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    failed = False
    out_dir = HERE.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        for workload in args.workload or list(WORKLOADS):
            compared, problems = check(workload, args.seed, Path(tmp))
            verdict = "FAILED" if problems else "ok"
            print(f"{workload}: {verdict} ({compared} deterministic "
                  f"metrics compared)")
            for problem in problems:
                print(f"  {problem}")
            failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
