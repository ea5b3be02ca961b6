#!/usr/bin/env python3
"""Loads every JSON document the CLIs and the campaign engine write.

    json_parse_check.py LINT ANALYZE CAMPAIGN SOURCE_DIR WORK_DIR

Runs `pcpda_lint --format=json` over scenarios/ and scenarios/bad/,
`pcpda_analyze --format=json` over scenarios/, and the phase-a grid of
campaign_smoke.sh (an injected crash and an injected hang), then parses
with Python's json module: both CLI arrays, MANIFEST.json,
BENCH_campaign.json, every quarantine record and every line of every
shard checkpoint. Exit 0 when everything parses and has its top-level
keys; 1 with one line per problem otherwise. Run by ctest as
`json-parse`.
"""

import json
import os
import shutil
import subprocess
import sys


def run(argv, allowed):
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=False)
    if proc.returncode not in allowed:
        raise RuntimeError("%s exited %d: %s" %
                           (" ".join(argv), proc.returncode, proc.stderr))
    return proc.stdout


def check_keys(what, value, keys):
    if not isinstance(value, dict):
        raise ValueError("%s: not an object" % what)
    missing = [key for key in keys if key not in value]
    if missing:
        raise ValueError("%s: missing %s" % (what, ", ".join(missing)))


def check_cli_array(what, text, keys, min_len):
    reports = json.loads(text)
    if not isinstance(reports, list) or len(reports) < min_len:
        raise ValueError("%s: want an array of at least %d reports" %
                         (what, min_len))
    for i, report in enumerate(reports):
        check_keys("%s[%d]" % (what, i), report, keys)


def main():
    if len(sys.argv) != 6:
        print(__doc__.strip().splitlines()[2].strip())
        return 2
    lint, analyze, campaign, source, work = sys.argv[1:]
    scenarios = os.path.join(source, "scenarios")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    problems = []

    def attempt(what, fn):
        try:
            fn()
        except (ValueError, RuntimeError, OSError) as err:
            problems.append("%s: %s" % (what, err))

    lint_keys = ["file", "scenario", "errors", "diagnostics"]
    attempt("lint scenarios/", lambda: check_cli_array(
        "lint scenarios/",
        run([lint, "--format=json", "--analysis=all", "--dir=" + scenarios],
            (0,)), lint_keys, 6))
    attempt("lint scenarios/bad/", lambda: check_cli_array(
        "lint scenarios/bad/",
        run([lint, "--format=json", "--dir=" + os.path.join(scenarios, "bad")],
            (1,)), lint_keys, 11))
    attempt("analyze scenarios/", lambda: check_cli_array(
        "analyze scenarios/",
        run([analyze, "--format=json", "--protocols=all", "--deny=none",
             "--dir=" + scenarios], (0,)), ["file", "protocols"], 6))

    out = os.path.join(work, "a")
    attempt("campaign", lambda: run(
        [campaign, "--out=" + out, "--scenarios=4", "--utils=0.3,0.6",
         "--protocols=PCP-DA,PCP", "--shards=2", "--horizon=400", "--jobs=4",
         "--retries=1", "--wall-budget-ms=500", "--inject-crash=3",
         "--inject-hang=7"], (1,)))
    documents = {
        "MANIFEST.json": ["campaign", "jobs", "pending", "shards"],
        "BENCH_campaign.json": ["campaign", "jobs", "acceptance", "failures"],
        "quarantine/job_000003.json": ["job", "outcome", "message"],
        "quarantine/job_000007.json": ["job", "outcome", "message"],
    }
    for name, keys in documents.items():
        def load(name=name, keys=keys):
            with open(os.path.join(out, name), encoding="utf-8") as f:
                check_keys(name, json.load(f), keys)
        attempt(name, load)
    for shard in ("shard_000.ckpt", "shard_001.ckpt"):
        def load_lines(shard=shard):
            with open(os.path.join(out, shard), encoding="utf-8") as f:
                lines = f.read().splitlines()
            check_keys(shard + ":1", json.loads(lines[0]), ["campaign", "v"])
            for n, line in enumerate(lines[1:], start=2):
                entry = json.loads(line)
                if not ("job" in entry or "intent" in entry or
                        "cancel" in entry):
                    raise ValueError("%s:%d: not a record or mark" %
                                     (shard, n))
        attempt(shard, load_lines)

    for problem in problems:
        print("json-parse: FAIL: " + problem)
    if problems:
        return 1
    print("json-parse: PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
