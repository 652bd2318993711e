#!/usr/bin/env python3
"""Steadiness check: runs each workload N times, one seed per run, and prints
the median and quartiles of every end-to-end metric with its spread,
(q3 - q1) / median, against the bound in BENCHMARK.json.

Usage (from the root of the repository):

    python3 perfbench/steady.py --runs 10 [--workloads zipf_warm,cold_budget]
        [--first-seed 1] [--seconds 30] [--out values.json]
        [--baseline earlier.json]

A metric whose spread exceeds its bound is flagged WIDE: a change cannot be
told apart from noise on it, so report it as unresolved. A metric whose
spread exceeds a third of its bound is flagged noisy. With --baseline, each
median is also compared with the median of an earlier --out file, and one
worse by more than its bound is flagged WORSE. Exits 1 when any metric other
than setup_s is WIDE, or any metric is WORSE.
"""

import argparse
import json
import os
import subprocess
import sys

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: run failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads",
                        help="comma-separated; default: BENCHMARK.json's")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    parser.add_argument("--baseline")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    baseline = {}
    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)

    values = {}
    failing = False
    for workload in workloads:
        runs = []
        for k in range(args.runs):
            runs.append(run_once(workload, args.first_seed + k, seconds))
            print(f"{workload} run {k + 1}/{args.runs} done", file=sys.stderr)
        values[workload] = {name: [r[name] for r in runs] for name in bounds}
        print(f"{workload} ({args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1})")
        print(f"  {'metric':16s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'bound':>6s}")
        for name, metric in bounds.items():
            median, q1, q3, spread = benchlib.spread(values[workload][name])
            flags = []
            if spread > metric["bound"]:
                flags.append("WIDE")
                failing |= name != "setup_s"
            elif spread > metric["bound"] / 3:
                flags.append("noisy")
            if workload in baseline:
                before, *_ = benchlib.spread(baseline[workload][name])
                change = (median - before) / before
                worse = -change if metric["better"] == "higher" else change
                flags.append(f"{change:+.1%} vs baseline")
                if worse > metric["bound"]:
                    flags.append("WORSE")
                    failing = True
            print(f"  {name:16s} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:7.3f} {metric['bound']:6.2f} {' '.join(flags)}")
        for name in bounds:
            runs = " ".join(f"{v:.4g}" for v in values[workload][name])
            print(f"  {name:16s} runs: {runs}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(values, f, indent=1)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
