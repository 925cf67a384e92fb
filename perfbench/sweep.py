#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload mid-random --seeds 1-10 [--trace 1] [--save runs.json]

For every metric: the median of the runs, its quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the distance
between the quartiles as a share of the median.  With ``--trace 0`` each
spread is compared with the metric's bound in BENCHMARK.json.  Runs are made
one after another, never in parallel, so they do not disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write every run's result to this JSON file")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    worst = 0.0
    for workload in args.workload:
        runs[workload] = []
        for seed in args.seeds:
            argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = done.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["inputs"] = {
                line.split()[1]: float(line.split()[2]) for line in lines if line.startswith("  input ")
            }
            runs[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        names = runs[workload][0]["metrics"]
        print(f"\n{workload}: {len(args.seeds)} runs")
        print(f"  {'metric':<48} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            flag = "" if bound is None else f"{bound:6.2f}" + (" OVER" if spread > bound else "")
            print(f"  {name:<48} {median:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {flag}")
        print()
    if args.save:
        args.save.write_text(json.dumps(runs, indent=1))
    if args.trace == 0:
        print(f"largest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
