#!/usr/bin/env python3
"""The serving benchmark: one run of one workload.

Usage (from the root of the repository):

    python3 perfbench/run.py --workload zipf_warm --seed 1 --seconds 30 --trace 0

Builds perfbench/ (and with it the repository's libraries) into the
directory named by CARGO_TARGET_DIR, default .bench_build, then runs
serve_bench trials of the workload, each a fresh process with its own
set-up, until --seconds have passed (at least three trials). Trial k
replays the request lists drawn from the trial seed --seed * 1000 + k, so a
run covers several seeded orders of the same request multiset, and the
same --seed always gives the same trials.

--trace 0 reports the end-to-end metrics from untraced trials, each the
median over the trials; timings are process CPU time, and a wall-clock
table follows that is not part of the JSON line. --trace 1 alternates
untraced and traced trials and reports the per-layer metrics of the traced
ones, with trace.overhead = traced qps_per_cpu / untraced qps_per_cpu; the
spans of the last traced trial are written as a Chrome trace next to the
build.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Exit status 0 when every check of every trial passed, 1 on a correctness
failure (the JSON still prints), 2 when the benchmark could not run.
"""

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time

import benchlib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_TRIALS = 3
TRIAL_TIMEOUT_S = 120


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds serve_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no fusion sources under {ROOT}/src")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "serve_bench",
                    "-j", "4"], check=True, stdout=sys.stderr)
    return os.path.join(out, "serve_bench")


def trial_seed(seed, k):
    return seed * 1000 + k


def run_trial(binary, workload, seed, traced, trace_out=None):
    """One serve_bench process; returns its parsed JSON line."""
    command = [binary, f"--workload={workload}", f"--seed={seed}"]
    if traced:
        command.append("--traced")
        if trace_out:
            command.append(f"--trace-out={trace_out}")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=TRIAL_TIMEOUT_S)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def median_over(trials, per_trial):
    return statistics.median(per_trial(t) for t in trials)


def qps_per_cpu(trial):
    return trial["completed"] / trial["timed_cpu_s"]


def end_to_end(trials):
    """The end-to-end metrics of untraced trials: each is the median over
    the trials of the trial's own figure, so one trial that caught a busy
    host, or a rare costly request order, does not move it. Timings are
    process CPU time; a trial's percentiles are taken over its own samples
    (at least 1000). The open loop has no per-request CPU time, so it
    reports no CPU percentiles."""
    completed = sum(t["completed"] for t in trials)
    attempted = sum(t["attempted"] for t in trials)
    metrics = {"qps_per_cpu": median_over(trials, qps_per_cpu)}
    if all(t["cpu_ms"] for t in trials):
        for name, percent in (("cpu_p50_ms", 50), ("cpu_p99_ms", 99)):
            metrics[name] = median_over(
                trials,
                lambda t: benchlib.tail_percentile(t["cpu_ms"], percent))
    metrics.update({
        "cost_per_query": median_over(
            trials, lambda t: t["cost"] / t["completed"]),
        "items_per_query": median_over(
            trials, lambda t: (t["items_sent"] + t["items_received"])
            / t["completed"]),
        "setup_s": median_over(trials, lambda t: t["setup_cpu_s"]),
        "peak_rss_mb": median_over(trials, lambda t: t["peak_rss_mb"]),
        "ok_share": completed / attempted,
    })
    return metrics


def wall_clock(trials):
    """Wall-clock figures of untraced trials, printed but not gated: on a
    shared host they move with the other tenants' load (see README.md)."""
    return {
        "qps": median_over(trials, lambda t: t["completed"] / t["timed_s"]),
        "latency_p50_ms": median_over(
            trials, lambda t: benchlib.tail_percentile(t["latency_ms"], 50)),
        "latency_p99_ms": median_over(
            trials, lambda t: benchlib.tail_percentile(t["latency_ms"], 99)),
        "setup_wall_s": median_over(trials, lambda t: t["setup_wall_s"]),
    }


def per_layer(traced, untraced):
    """The per-layer metrics: medians over traced trials."""
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(t["layers"][name] for t in traced)
    for part in ("generate", "start", "warmup"):
        values[f"setup.{part}_s"] = median_over(traced,
                                                lambda t: t[f"{part}_cpu_s"])
    lags = [x for t in traced for x in t["sched_lag_ms"]]
    values["driver.sched_lag_p99_ms"] = (
        benchlib.tail_percentile(lags, 99) if lags else 0.0)
    values["trace.overhead"] = (median_over(traced, qps_per_cpu) /
                                median_over(untraced, qps_per_cpu))
    return {name: values[name] for name, _, _ in benchlib.PER_LAYER}


def print_table(title, metrics, units):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.4f} {units[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=benchlib.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as error:
        log(f"run.py: build failed: {error}")
        return 2

    untraced, traced = [], []
    trace_out = os.path.join(build_dir(), f"{args.workload}.trace.json")
    start = time.monotonic()
    try:
        for k in itertools.count():
            seed = trial_seed(args.seed, k)
            untraced.append(run_trial(binary, args.workload, seed, False))
            if args.trace:
                traced.append(run_trial(binary, args.workload, seed, True,
                                        trace_out))
            trials = len(untraced) + len(traced)
            if trials >= MIN_TRIALS and time.monotonic() - start >= args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        log(f"run.py: trial failed: {error}")
        return 2

    everything = untraced + traced
    correct = all(t["correct"] for t in everything)
    attempted = sum(t["attempted"] for t in everything)
    failed = sum(t["errors"] + t["shed"] for t in everything)
    try:
        if args.trace:
            metrics = per_layer(traced, untraced)
            units = {name: unit for name, unit, _ in benchlib.PER_LAYER}
        else:
            metrics = end_to_end(untraced)
            units = {name: unit for name, unit, _ in benchlib.END_TO_END}
    except ValueError as error:  # too few samples for a tail percentile
        log(f"run.py: {error}")
        return 2

    print(f"{args.workload}: seed {args.seed}, {len(untraced)} untraced and "
          f"{len(traced)} traced trials, {attempted} requests, "
          f"{sum(t['divergences'] for t in everything)} oracle divergences "
          f"in {sum(t['oracle_sampled'] for t in everything)} sampled answers")
    print_table("end-to-end" if not args.trace else "per-layer", metrics, units)
    if not args.trace:
        try:
            wall = wall_clock(untraced)
        except ValueError as error:
            log(f"run.py: {error}")
            return 2
        print_table("wall clock (not gated)", wall,
                    {"qps": "1/s", "latency_p50_ms": "ms",
                     "latency_p99_ms": "ms", "setup_wall_s": "s"})
    if args.trace:
        layers = metrics
        parts = layers["trace.latency_us"] - layers["accounting.residual_us"]
        print(f"  accounted {parts:.1f} us of {layers['trace.latency_us']:.1f} us "
              f"client-view latency; spans in {trace_out}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
