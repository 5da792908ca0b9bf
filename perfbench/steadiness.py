#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steadiness.py [--runs 10] [--workloads train evaluate ...] [--short]

Each set runs every workload once per seed (set A seeds 1..N, set B seeds
N+1..2N), untraced.  For every end-to-end metric of ``BENCHMARK.json`` and
workload it reports each set's median and spread (the distance between the
first and third quartile as a share of the median) and whether

* each spread stays within the metric's bound,
* set B's median is not worse than set A's by more than the bound, and
* the share of failed operations is exactly the same in every run.

Exit status 0 when everything agrees.  ``--short`` runs the seconds-scale
inputs (``run.py --quick``) with two runs per set, for the benchmark's own
tests.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float, short: bool) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    if short:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def compare(workload: str, sets, metrics) -> list:
    """Rows (workload, metric, medians, spreads, pooled spread, shift, bound,
    verdict, values) for one workload."""
    rows = []
    for metric in metrics:
        name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
        values = [[run["metrics"][name]["value"] for run in runs] for runs in sets]
        medians = [statistics.median(v) for v in values]
        spreads = [spread(v) for v in values]
        shift = (medians[1] / medians[0] - 1.0) if medians[0] else float("inf")
        worse = shift if lower else -shift
        ok = worse <= bound and max(spreads) <= bound
        rows.append((workload, name, medians, spreads, spread(values[0] + values[1]), shift,
                     bound, ok, values))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--runs", type=int, default=10, help="runs per set")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)
    runs = 2 if args.short else args.runs
    seconds = 1 if args.short else spec["run_seconds"]

    all_ok = True
    for workload in args.workloads:
        sets = [[one_run(workload, base + k, seconds, args.short) for k in range(1, runs + 1)]
                for base in (0, runs)]
        shares = {Fraction(r["failed"], r["attempted"]) for runs_ in sets for r in runs_}
        correct = all(r["correct"] for runs_ in sets for r in runs_)
        print(f"{workload}: correct={correct} failed share={sorted(map(str, shares))}")
        all_ok &= correct and len(shares) == 1
        rows = compare(workload, sets, spec["end_to_end"]) if runs >= 2 else []
        for _, name, medians, spreads, pooled, shift, bound, ok, values in rows:
            print(f"  {name:12s} medians {medians[0]:.6g} / {medians[1]:.6g} "
                  f"(shift {shift:+.3f})  spreads {spreads[0]:.3f} / {spreads[1]:.3f} "
                  f"(all runs {pooled:.3f})  bound {bound}  {'ok' if ok else 'OUT OF BOUND'}")
            print("    runs " + " | ".join(" ".join(f"{v:.4g}" for v in set_) for set_ in values))
            all_ok &= ok or args.short
    print("agree" if all_ok else "disagree")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
