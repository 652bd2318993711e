"""Tests of the benchmark's Python side and a tiny run of every workload.

Run from perfbench/ after building serve_bench (ctest in the build directory
does both); PERFBENCH_BINARY names the binary, default
<repo>/.bench_build/serve_bench.
"""

import json
import os
import subprocess
import unittest

import benchlib
import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


class TailPercentileTest(unittest.TestCase):
    def test_percentile_with_exactly_ten_samples_beyond(self):
        samples = list(range(1000, 0, -1))  # unsorted on purpose
        self.assertEqual(benchlib.tail_percentile(samples, 99), 990)
        self.assertEqual(benchlib.tail_percentile(samples, 50), 500)
        self.assertEqual(benchlib.tail_percentile(list(range(10000)), 99.9),
                         9989)

    def test_refuses_fewer_than_ten_beyond(self):
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(999)), 99)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile(list(range(9999)), 99.9)
        with self.assertRaises(ValueError):
            benchlib.tail_percentile([], 50)


class MetricNamesTest(unittest.TestCase):
    def test_names_match_the_contract_and_benchmark_json(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        for section in ("end_to_end", "per_layer", "workloads"):
            for entry in spec[section]:
                self.assertRegex(entry["name"], benchlib.METRIC_NAME)
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _, _ in benchlib.END_TO_END])
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         [name for name, _, _ in benchlib.PER_LAYER])
        for workload in spec["workloads"]:
            self.assertIn(workload["name"], benchlib.WORKLOADS)


def fake_trial(cpu_ms, cost, timed_cpu_s=1.0):
    return {"completed": 1000, "attempted": 1000, "timed_cpu_s": timed_cpu_s,
            "cpu_ms": [cpu_ms] * 1000, "cost": cost, "items_sent": 10,
            "items_received": 20, "setup_cpu_s": cpu_ms / 10,
            "peak_rss_mb": 100.0}


class EndToEndTest(unittest.TestCase):
    def test_every_metric_is_the_median_over_trials(self):
        trials = [fake_trial(1.0, 500.0), fake_trial(2.0, 1000.0),
                  fake_trial(9.0, 9000.0, timed_cpu_s=4.0)]
        metrics = run.end_to_end(trials)
        self.assertEqual(list(metrics),
                         [name for name, _, _ in benchlib.END_TO_END])
        self.assertEqual(metrics["cpu_p50_ms"], 2.0)
        self.assertEqual(metrics["cpu_p99_ms"], 2.0)
        self.assertEqual(metrics["qps_per_cpu"], 1000.0)
        self.assertEqual(metrics["cost_per_query"], 1.0)
        self.assertEqual(metrics["items_per_query"], 0.03)
        self.assertEqual(metrics["setup_s"], 0.2)

    def test_open_loop_reports_no_cpu_percentiles(self):
        trial = fake_trial(1.0, 500.0)
        trial["cpu_ms"] = []
        self.assertNotIn("cpu_p50_ms", run.end_to_end([trial]))

    def test_trial_seeds_are_fixed_by_the_run_seed(self):
        seeds = [run.trial_seed(7, k) for k in range(5)]
        self.assertEqual(seeds, [run.trial_seed(7, k) for k in range(5)])
        self.assertEqual(len(set(seeds + [run.trial_seed(8, k)
                                          for k in range(5)])), 10)


class TinyRunTest(unittest.TestCase):
    """A few dozen requests of each workload, traced, pass every check."""

    def test_every_workload_passes_the_oracle(self):
        binary = os.environ.get("PERFBENCH_BINARY",
                                os.path.join(ROOT, ".bench_build", "serve_bench"))
        for workload in benchlib.WORKLOADS:
            with self.subTest(workload=workload):
                done = subprocess.run(
                    [binary, f"--workload={workload}", "--seed=3", "--tiny",
                     "--traced"],
                    stdout=subprocess.PIPE, text=True, timeout=120)
                self.assertEqual(done.returncode, 0)
                trial = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(trial["correct"])
                self.assertGreater(trial["oracle_sampled"], 0)
                self.assertEqual(trial["divergences"], 0)
                self.assertEqual(trial["completed"], trial["attempted"])
                self.assertGreater(trial["timed_cpu_s"], 0.0)
                # One request in flight on the closed loops, so each has
                # its own CPU time; none on the open loop.
                self.assertEqual(len(trial["cpu_ms"]),
                                 0 if workload == "open_poisson"
                                 else trial["completed"])
                layers = trial["layers"]
                self.assertAlmostEqual(layers["accounting.residual_us"], 0.0,
                                       delta=1.0)


if __name__ == "__main__":
    unittest.main()
