#!/usr/bin/env python3
"""The noise study behind NOISE.md and the bounds in BENCHMARK.json.

    benchmark/noise_study.py [--repeats 5] [--seeds 10] > benchmark/NOISE.md

Part 1 runs every workload `--repeats` times back to back on the default
seed and tabulates min / median / max per end-to-end metric. Part 2 runs
every workload on `--seeds` different seeds and reports, per metric, the
interquartile range of the values as a share of their median — the spread
the benchmark driver holds against each metric's bound. Builds first, runs
one process at a time, and needs an otherwise idle machine.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
DEFAULT_SEED = 7


def run(workload, seed):
    """One untraced run; returns {metric: value}."""
    out = subprocess.run(
        [str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True).stdout
    line = json.loads(out.strip().splitlines()[-1])
    assert line["correct"] and line["failed"] == 0, line
    return {name: m["value"] for name, m in line["metrics"].items()}


def spread(values):
    """IQR / median, as `statistics.quantiles(values, n=4)` gives the quartiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()

    print(f"## Part 1 — {args.repeats} back-to-back runs, seed {DEFAULT_SEED}\n")
    print("`range` is (max − min) / median over the runs.\n")
    worst_range = {}
    for workload in WORKLOADS:
        runs = [run(workload, DEFAULT_SEED) for _ in range(args.repeats)]
        print(f"### `{workload}`\n")
        print("| metric | min | median | max | range |\n|---|---:|---:|---:|---:|")
        for name in BOUNDS:
            values = [r[name] for r in runs]
            median = statistics.median(values)
            rel = (max(values) - min(values)) / median
            worst_range[name] = max(worst_range.get(name, 0.0), rel)
            print(f"| `{name}` | {min(values):.4f} | {median:.4f} | {max(values):.4f} | {rel:.1%} |")
        print()
        sys.stdout.flush()

    print(f"## Part 2 — {args.seeds} seeds (1..{args.seeds}), one run each\n")
    print("Each cell is IQR / median of the metric over the seeds.\n")
    print("| metric | " + " | ".join(f"`{w}`" for w in WORKLOADS) + " | worst | bound | worst ÷ bound |")
    print("|---|" + "---:|" * (len(WORKLOADS) + 3))
    by_workload = {w: [run(w, seed) for seed in range(1, args.seeds + 1)] for w in WORKLOADS}
    for name, bound in BOUNDS.items():
        cells = [spread([r[name] for r in by_workload[w]]) for w in WORKLOADS]
        worst = max(cells)
        print(f"| `{name}` | " + " | ".join(f"{c:.1%}" for c in cells)
              + f" | {worst:.1%} | {bound:.0%} | {worst / bound:.2f} |")
    print("\n## Worst same-seed range per metric (Part 1)\n")
    print("| metric | worst range | bound |\n|---|---:|---:|")
    for name, bound in BOUNDS.items():
        print(f"| `{name}` | {worst_range[name]:.1%} | {bound:.0%} |")


if __name__ == "__main__":
    main()
