#!/usr/bin/env python3
"""The benchmark's own test.

    python3 perfbench/test_bench.py

Runs every workload in short mode (small inputs, one-second windows),
untraced and traced, and checks that each run prints the result line the
benchmark promises: every metric in BENCHMARK.json with its unit, a clean
run at the seed, and traced and untraced runs that agree on the outputs
they verified and on the exact per-layer counts.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("campaign_grid", "long_horizon", "fuzz_oracles")
SEED = 7

# The end-to-end and per-layer metrics the benchmark is specified with.
END_TO_END = {"throughput_per_s", "peak_rss_mb", "setup_s"}
PER_LAYER = {
    "workload.generate_calls", "workload.generate_ms",
    "lint.calls", "lint.busy_ms",
    "plan.compile_calls", "plan.compile_ms",
    "sched.run_calls", "sched.run_ms", "sched.teardown_ms",
    "sched.sim_ticks", "sched.ns_per_tick", "sched.lock_decisions",
    "sched.decisions_per_ktick", "sched.jobs_released",
    "sched.jobs_committed", "sched.restarts", "sched.useful_ratio",
    "history.calls", "history.busy_ms", "history.committed_txns",
    "analysis.calls", "analysis.busy_ms",
    "fuzz.scenario_ms", "fuzz.evaluate_ms", "fuzz.iterations",
    "fuzz.findings",
    "runner.batch_ms", "runner.task_ms", "runner.queue_wait_ms",
    "runner.parallel_efficiency",
    "campaign.append_calls", "campaign.append_ms",
    "campaign.checkpoint_bytes", "campaign.merge_ms",
    "trace.coverage", "trace.overhead",
}
# Layers each workload must exercise (a positive call count in the trace).
LAYER_CALLS = {
    "campaign_grid": ("workload.generate_calls", "lint.calls",
                      "plan.compile_calls", "sched.run_calls",
                      "analysis.calls", "campaign.append_calls"),
    "long_horizon": ("workload.generate_calls", "plan.compile_calls",
                     "sched.run_calls"),
    "fuzz_oracles": ("workload.generate_calls", "lint.calls",
                     "plan.compile_calls", "sched.run_calls",
                     "history.calls", "analysis.calls", "fuzz.iterations"),
}


def run_bench(workload, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", str(SEED), "--seconds", "1",
         "--trace", str(trace), "--short"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        check=False, timeout=600)
    lines = done.stdout.decode().strip().splitlines()
    info = {"stderr": done.stderr.decode()[-2000:]}
    for line in lines[:-1]:
        key, _, value = line.partition(": ")
        info[key] = value
    return done.returncode, info, json.loads(lines[-1]) if lines else None


class BenchmarkTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)
        cls.runs = {(workload, trace): run_bench(workload, trace)
                    for workload in WORKLOADS for trace in (0, 1)}

    def test_spec_lists_the_metrics(self):
        self.assertEqual({m["name"] for m in self.spec["end_to_end"]},
                         END_TO_END)
        self.assertEqual({m["name"] for m in self.spec["per_layer"]},
                         PER_LAYER)
        self.assertEqual({w["name"] for w in self.spec["workloads"]},
                         set(WORKLOADS))

    def test_result_line(self):
        for (workload, trace), (code, info, result) in self.runs.items():
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(code, 0, info["stderr"])
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"], info.get("problems"))
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assertTrue(info["error_rate"].startswith("0 "))

    def test_metrics_carry_their_units(self):
        for (workload, trace), (_, _, result) in self.runs.items():
            declared = self.spec["per_layer" if trace else "end_to_end"]
            with self.subTest(workload=workload, trace=trace):
                self.assertEqual(
                    {name: m["unit"] for name, m in
                     result["metrics"].items()},
                    {m["name"]: m["unit"] for m in declared})
                for name, metric in result["metrics"].items():
                    self.assertIsInstance(metric["value"], (int, float),
                                          name)

    def test_end_to_end_values_are_positive(self):
        for workload in WORKLOADS:
            metrics = self.runs[(workload, 0)][2]["metrics"]
            for name, metric in metrics.items():
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metric["value"], 0)

    def test_traced_and_untraced_runs_agree(self):
        for workload in WORKLOADS:
            untraced = self.runs[(workload, 0)][1]
            traced = self.runs[(workload, 1)][1]
            with self.subTest(workload=workload):
                self.assertEqual(untraced["trace_agrees"], "true")
                self.assertEqual(traced["trace_agrees"], "true")
                self.assertEqual(untraced["output_digest"],
                                 traced["output_digest"])
                self.assertEqual(untraced["counts"], traced["counts"])
                counts = json.loads(traced["counts"])
                metrics = self.runs[(workload, 1)][2]["metrics"]
                for name in ("sched.sim_ticks", "sched.lock_decisions",
                             "sched.jobs_committed", "sched.restarts",
                             "history.committed_txns",
                             "campaign.checkpoint_bytes"):
                    self.assertEqual(metrics[name]["value"], counts[name],
                                     name)

    def test_layers_run_where_expected(self):
        for workload, names in LAYER_CALLS.items():
            metrics = self.runs[(workload, 1)][2]["metrics"]
            for name in names:
                with self.subTest(workload=workload, metric=name):
                    self.assertGreater(metrics[name]["value"], 0)
            with self.subTest(workload=workload, metric="trace.coverage"):
                self.assertGreater(metrics["trace.coverage"]["value"], 0.9)
                self.assertLessEqual(metrics["trace.coverage"]["value"],
                                     1.0)


if __name__ == "__main__":
    unittest.main()
