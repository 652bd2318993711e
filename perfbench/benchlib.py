"""Metric definitions and statistics shared by run.py, steady.py and the tests."""

import math
from fractions import Fraction
import re
import statistics

METRIC_NAME = re.compile(r"^[A-Za-z0-9_.-]+$")

# Tail percentiles need this many samples beyond them.
TAIL_SAMPLES = 10

# Every workload run.py can run. BENCHMARK.json gates the first three;
# open_poisson runs by hand only (see README.md).
WORKLOADS = ("zipf_warm", "cold_budget", "fleet_churn", "open_poisson")

# End-to-end metrics, from untraced trials: (name, unit, better). Timings are
# process CPU time (see README.md, "Why CPU time").
END_TO_END = (
    ("qps_per_cpu", "1/s", "higher"),
    ("cpu_p50_ms", "ms", "lower"),
    ("cpu_p99_ms", "ms", "lower"),
    ("cost_per_query", "cost", "lower"),
    ("items_per_query", "items", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("ok_share", "ratio", "higher"),
)

# Per-layer metrics, from traced trials: (name, unit, better). Workloads a metric
# does not apply to report 0 (see README.md for where each applies).
PER_LAYER = (
    ("edge.overhead_us", "us", "lower"),
    ("protocol.codec_us", "us", "lower"),
    ("protocol.response_bytes", "bytes", "lower"),
    ("service.queue_depth_mean", "requests", "lower"),
    ("service.shed", "count", "lower"),
    ("session.other_us", "us", "lower"),
    ("session.optimize_us", "us", "lower"),
    ("session.execute_us", "us", "lower"),
    ("session.learn_us", "us", "lower"),
    ("query.parse_us", "us", "lower"),
    ("optimizer.plans_per_query", "plans", "lower"),
    ("exec.op_us.sq", "us", "lower"),
    ("exec.op_us.sjq", "us", "lower"),
    ("exec.op_us.lq", "us", "lower"),
    ("exec.op_us.select", "us", "lower"),
    ("exec.op_us.setop", "us", "lower"),
    ("exec.other_us", "us", "lower"),
    ("cache.hit_rate", "ratio", "higher"),
    ("cache.containment_rate", "ratio", "higher"),
    ("cache.flight_waits", "count", "lower"),
    ("cache.evictions", "count", "lower"),
    ("cache.bytes_peak", "bytes", "lower"),
    ("cache.span_us", "us", "lower"),
    ("source.calls_per_query", "calls", "lower"),
    ("source.calls.sq", "calls", "lower"),
    ("source.calls.sjq", "calls", "lower"),
    ("source.calls.probe", "calls", "lower"),
    ("source.calls.lq", "calls", "lower"),
    ("source.call_us", "us", "lower"),
    ("source.items_received_per_query", "items", "lower"),
    ("source.emulated_semijoins", "count", "lower"),
    ("relational.batch_rows_per_query", "rows", "lower"),
    ("router.key_us", "us", "lower"),
    ("router.hop_us", "us", "lower"),
    ("router.warm_locality", "ratio", "higher"),
    ("router.forward_bytes_per_query", "bytes", "lower"),
    ("router.invalidate_fanouts", "count", "lower"),
    ("setup.generate_s", "s", "lower"),
    ("setup.start_s", "s", "lower"),
    ("setup.warmup_s", "s", "lower"),
    ("driver.sched_lag_p99_ms", "ms", "lower"),
    ("trace.latency_us", "us", "lower"),
    ("accounting.residual_us", "us", "lower"),
    ("trace.overhead", "ratio", "higher"),
)


def _rank(percent, n):
    # Exact: 99.0 / 100 * 1000 is not 990 in binary floating point.
    return math.ceil(Fraction(str(percent)) * n / 100)


def tail_percentile(samples, percent):
    """The nearest-rank `percent` percentile of `samples`.

    Refuses (ValueError) unless at least TAIL_SAMPLES samples lie beyond
    it, so a reported tail is never one or two outliers.
    """
    n = len(samples)
    rank = _rank(percent, n)
    if n - rank < TAIL_SAMPLES:
        raise ValueError(
            f"p{percent:g} of {n} samples has {max(n - rank, 0)} beyond it; "
            f"need {TAIL_SAMPLES}")
    return sorted(samples)[rank - 1]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives
    them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else math.inf
