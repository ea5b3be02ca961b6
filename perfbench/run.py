#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--short]

Builds perfbench/ (the pcpda library from src/ plus the workload program)
into .bench_build/perfbench, then runs one workload in its own process:
campaign_grid, long_horizon or fuzz_oracles. README.md says what each one
measures and why the numbers are taken the way they are.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics of a separate traced run with --trace 1. The lines above
it are the provenance block and ungated diagnostics. Exit code 0 means a
result was printed; a failed build or run exits non-zero without one.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
PROGRAM = os.path.join(BUILD_DIR, "perfbench_workloads")

WORKLOADS = ("campaign_grid", "long_horizon", "fuzz_oracles")

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "workload.generate_calls": "count",
    "workload.generate_ms": "ms",
    "lint.calls": "count",
    "lint.busy_ms": "ms",
    "plan.compile_calls": "count",
    "plan.compile_ms": "ms",
    "sched.run_calls": "count",
    "sched.run_ms": "ms",
    "sched.teardown_ms": "ms",
    "sched.sim_ticks": "count",
    "sched.ns_per_tick": "ns",
    "sched.lock_decisions": "count",
    "sched.decisions_per_ktick": "count/ktick",
    "sched.jobs_released": "count",
    "sched.jobs_committed": "count",
    "sched.restarts": "count",
    "sched.useful_ratio": "ratio",
    "history.calls": "count",
    "history.busy_ms": "ms",
    "history.committed_txns": "count",
    "analysis.calls": "count",
    "analysis.busy_ms": "ms",
    "fuzz.scenario_ms": "ms",
    "fuzz.evaluate_ms": "ms",
    "fuzz.iterations": "count",
    "fuzz.findings": "count",
    "runner.batch_ms": "ms",
    "runner.task_ms": "ms",
    "runner.queue_wait_ms": "ms",
    "runner.parallel_efficiency": "ratio",
    "campaign.append_calls": "count",
    "campaign.append_ms": "ms",
    "campaign.checkpoint_bytes": "bytes",
    "campaign.merge_ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then lets cmake rebuild whatever changed."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr; stdout carries only the result.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, check=False)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))


def program_args(args):
    # The program takes the seed as an unsigned 64-bit value.
    command = [PROGRAM, "--workload=" + args.workload,
               "--seed=%d" % (args.seed % 2**64),
               "--seconds=%g" % args.seconds,
               "--trace=%d" % args.trace, "--work-dir=" + WORK_DIR]
    if args.short:
        command.append("--short")
    return command


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def git_revision():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                           "HEAD"], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, check=False)
    return done.stdout.decode().strip() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    os.makedirs(WORK_DIR, exist_ok=True)

    command = program_args(args)
    if args.trace:
        command.append("--spans-out=" + os.path.join(
            ROOT, ".bench_build", "spans_%s.jsonl" % args.workload))
    done = subprocess.run(command, stdout=subprocess.PIPE, cwd=ROOT,
                          check=False, timeout=170)
    run = last_json_line(done.stdout.decode())
    if done.returncode != 0 or run is None:
        fail("workload program exited with code %d" % done.returncode)
    if not args.trace and run["setup_samples"] == 0:
        fail("no set-up time was measured")

    rounds = run["rounds"]
    prov = run["provenance"]
    print("provenance: schema=%s git=%s nproc=%d build_type=%s "
          "compiler=%s" % (prov["schema"], git_revision(), prov["nproc"],
                           prov["build_type"], prov["compiler"]))
    print("workload: %s seed=%d inputs=%d jobs=%d work_per_cycle=%g %s"
          % (run["workload"], run["seed"], rounds["inputs"], prov["jobs"],
             run["work_per_cycle"], run["work_unit"]))
    print("rounds (ungated): rounds=%d cycles=%d cycle_s fastest=%.6f "
          "p10=%.6f median=%.6f slowest=%.6f; sum of fastest rounds "
          "%.6f s" % (rounds["rounds"], rounds["cycles"],
                      rounds["cycle_fastest_s"], rounds["cycle_p10_s"],
                      rounds["cycle_median_s"], rounds["cycle_slowest_s"],
                      rounds["fastest_rounds_sum_s"]))
    if not args.trace:
        print("setup (median of %d fresh processes): %.6f s"
              % (run["setup_samples"], run["setup_s"]))
    print("error_rate: %.17g (failed %d of %d)" % (
        run["error_rate"], run["failed"], run["attempted"]))
    print("output_digest: %s" % run["output_digest"])
    print("trace_agrees: %s" % json.dumps(run["trace_agrees"]))
    print("counts: %s" % json.dumps(run["counts"], sort_keys=True))
    if run["problems"]:
        print("problems: %s" % run["problems"])

    if args.trace:
        values = run["layers"]
        units = PER_LAYER_UNITS
    else:
        values = {"throughput_per_s": run["throughput_per_s"],
                  "peak_rss_mb": run["peak_rss_mb"],
                  "setup_s": run["setup_s"]}
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": bool(run["correct"]),
                      "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
