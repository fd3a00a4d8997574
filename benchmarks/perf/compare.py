#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A.json B.json``.

A and B are files written by ``run.py --out``; each may hold several runs
of a workload, whose median is compared.  Direction and bound of every
end-to-end metric come from ``BENCHMARK.json``.  One row per (metric,
workload) with both medians and the ratio B/A, A being the base.

The bounds in ``BENCHMARK.json`` have to hold between runs of *different*
seeds, so they allow for what the inputs vary.  When A and B ran a workload
with the same seeds the inputs are identical, and the metrics that follow
the inputs, not the clock, are held to :data:`SAME_SEED_BOUNDS` instead.

Exit code 1 when B is worse than A by more than a metric's bound on any
workload, or when a workload's failed share rose; 0 otherwise.  Run it in
both directions for an A/A check.  Only untraced runs are compared.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

Key = Tuple[str, str]  # (workload, metric)

#: metric -> backend clock -> bound between runs of the same seeds.  The
#: simulator's counting traffic repeats exactly; over sockets, timing decides
#: how a device batches its updates into frames.  Memory follows the inputs
#: (measured spread at one seed: under 1%).
SAME_SEED_BOUNDS = {
    "wire_bytes": {"model": 0.0, "wall": 0.01},
    "wire_msgs": {"model": 0.0, "wall": 0.01},
    "peak_rss_mb": {"model": 0.05, "wall": 0.05},
}


class Runs:
    """The untraced runs of one file, per workload."""

    def __init__(self, path: str) -> None:
        with open(path) as handle:
            runs = [run for run in json.load(handle)["runs"] if not run["trace"]]
        values: Dict[Key, List[float]] = {}
        attempted: Dict[str, int] = {}
        failed: Dict[str, int] = {}
        #: workload -> its runs' seeds, sorted; workload -> backend clock
        self.seeds: Dict[str, List[int]] = {}
        self.clock: Dict[str, str] = {}
        for run in runs:
            workload = run["workload"]
            attempted[workload] = attempted.get(workload, 0) + run["attempted"]
            failed[workload] = failed.get(workload, 0) + run["failed"]
            self.seeds.setdefault(workload, []).append(run["seed"])
            self.seeds[workload].sort()
            self.clock[workload] = run["clock"]
            for metric, value in run["metrics"].items():
                if value is not None:
                    values.setdefault((workload, metric), []).append(value)
        #: (workload, metric) -> median over the runs
        self.medians = {
            key: statistics.median(series) for key, series in values.items()
        }
        #: workload -> failed / attempted over the runs
        self.shares = {
            w: failed[w] / attempted[w] for w in attempted if attempted[w]
        }


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative = better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def main(argv: Optional[List[str]] = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declaration: Dict[str, Any] = json.load(handle)
    runs_a, runs_b = Runs(args[0]), Runs(args[1])
    regressions = 0
    print(f"{'workload':<18}{'metric':<18}{'A (base)':>14}{'B':>14}"
          f"{'B/A':>9}  unit    verdict")
    for workload in [row["name"] for row in declaration["workloads"]]:
        same_seeds = (
            workload in runs_a.seeds
            and runs_a.seeds[workload] == runs_b.seeds.get(workload)
        )
        if same_seeds:
            print(f"{workload}: same seeds on both sides, same-seed bounds apply")
        for row in declaration["end_to_end"]:
            key = (workload, row["name"])
            if key not in runs_a.medians or key not in runs_b.medians:
                continue
            a, b = runs_a.medians[key], runs_b.medians[key]
            worse = worse_by(a, b, row["better"])
            bound = row["bound"]
            if same_seeds and row["name"] in SAME_SEED_BOUNDS:
                bound = SAME_SEED_BOUNDS[row["name"]][runs_a.clock[workload]]
            verdict = "ok"
            if worse > bound:
                verdict = f"WORSE by {worse:.1%} of A (bound {bound:.0%})"
                regressions += 1
            ratio = b / a if a else float("nan")
            print(f"{workload:<18}{row['name']:<18}{a:>14.6g}{b:>14.6g}"
                  f"{ratio:>9.3f}  {row['unit']:<7} {verdict}")
        share_a = runs_a.shares.get(workload)
        share_b = runs_b.shares.get(workload)
        if share_a is not None and share_b is not None:
            verdict = "ok"
            if share_b > share_a:
                verdict = "WORSE: failed share rose"
                regressions += 1
            print(f"{workload:<18}{'failed_share':<18}{share_a:>14.6g}"
                  f"{share_b:>14.6g}{'':>9}  ratio   {verdict}")
    print(f"{regressions} regression(s) of B against A")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
