#!/usr/bin/env python3
"""The repository benchmark: one command for training, scenario evaluation
and serving.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Workloads: ``train``, ``evaluate``, ``serve`` (see ``perfbench/README.md``).
The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured with
no instrumentation installed; with ``--trace 1`` they are the per-layer
metrics, taken from traced rounds that alternate with untraced ones.

Inputs are generated from ``--seed`` (synthetic traces, job mixes, agent
weights), so nothing is downloaded.  The program is imported from ``src/``
next to this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"

#: Set-ups per run: at least SETUP_MIN, then more until SETUP_BUDGET_S seconds
#: have gone into set-up or SETUP_MAX were made.  ``setup_s`` is their median.
SETUP_MIN = 5
SETUP_MAX = 25
SETUP_BUDGET_S = 2.0

#: Module that runs each workload; each exposes ``run(args, outcome)``.
WORKLOADS = {
    "train": "train_workload",
    "evaluate": "evaluate_workload",
    "serve": "serve_workload",
}


class Outcome:
    """What one run reports: metric values, operation counts and check problems."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def check(self, problems: List[str], label: str) -> None:
        self.problems.extend(f"{label}: {problem}" for problem in problems)


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in percent."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def timed_setups(make: Callable[[], object], release: Callable[[object], None]):
    """Set up repeatedly (see SETUP_MIN); keep the last state, return it with
    the median set-up time."""
    times = []
    state = None
    while len(times) < SETUP_MIN or (sum(times) < SETUP_BUDGET_S and len(times) < SETUP_MAX):
        if state is not None:
            release(state)
        started = time.perf_counter()
        state = make()
        times.append(time.perf_counter() - started)
    return state, median(times)


def rounds(seconds: float, trace: bool, run_round: Callable[[bool], None]) -> None:
    """Repeat whole rounds until ``seconds`` have passed.

    Untraced runs trace nothing.  Traced runs alternate an untraced round
    with a traced one, starting untraced, and always make at least one of
    each, so every traced run can set the two side by side.
    """
    started = time.perf_counter()
    count = 0
    while True:
        traced = trace and count % 2 == 1
        run_round(traced)
        count += 1
        done = time.perf_counter() - started >= seconds
        if done and (not trace or count >= 2):
            return


#: The end-to-end metrics each round measures, in the column order of a
#: round's figures (``setup_s`` is measured apart).
ROUND_METRICS = ("round_s", "part1_s", "part2_s", "rate_per_s")


def report_rounds(outcome: Outcome, figures: Dict[bool, List[tuple]], trace: bool) -> None:
    """Report per-round figures, keyed by whether the round was traced.

    Untraced runs report the median of each end-to-end metric.  Traced runs
    report ``trace.overhead.<metric>``: how much slower the traced rounds'
    median is than the untraced rounds' (for the rate, which is better
    higher, the ratio is inverted).
    """
    for index, name in enumerate(ROUND_METRICS):
        plain = median(row[index] for row in figures[False])
        if not trace:
            outcome.metrics[name] = plain
            continue
        traced = median(row[index] for row in figures[True])
        slow, fast = (plain, traced) if name == "rate_per_s" else (traced, plain)
        outcome.metrics[f"trace.overhead.{name}"] = slow / fast - 1.0 if fast else 0.0


def stop_helper_processes() -> None:
    """Wait for every process the run started before it reports.

    Workers of the process rollout backend are joined by ``Trainer.close``;
    this joins any child ``multiprocessing`` still knows of, and stops the
    resource tracker that the backend's shared-memory segments start.  Left
    alone, the tracker outlives this process: it sees its pipe close only
    when the interpreter exits, and ends after it.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout=5.0)
        if child.is_alive():
            child.kill()
            child.join()
    resource_tracker._resource_tracker._stop()


def spec_metrics(kind: str) -> List[dict]:
    return json.loads(SPEC.read_text(encoding="utf-8"))[kind]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="shrink every workload to seconds-scale inputs (used by the benchmark's own tests)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # One BLAS thread: the timings then measure the program, not how many
    # idle cores the machine happened to have, and the serving and pool
    # workloads' processes do not oversubscribe the cores.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")

    import importlib

    outcome = Outcome()
    try:
        importlib.import_module(WORKLOADS[args.workload]).run(args, outcome)
    finally:
        stop_helper_processes()

    # A per-layer metric of a layer the workload does not run reads 0; every
    # end-to-end metric must be measured.
    declared = spec_metrics("per_layer" if args.trace else "end_to_end")
    missing = [m["name"] for m in declared if m["name"] not in outcome.metrics]
    if missing and not args.trace:
        outcome.problems.append(f"unmeasured metrics: {missing}")
    for problem in outcome.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            m["name"]: {"value": float(outcome.metrics.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
