#!/bin/sh
# Supervisor smoke test, run by ctest as `supervisor-smoke`.
#
#   supervisor_smoke.sh <pcpda_campaign binary> <scratch dir>
#
# Three phases against the process-isolated supervisor (--supervise):
#   a) chaos self-test: a seeded schedule of 10 SIGKILL + 2 SIGSTOP
#      injections against live workers. Every kill loses at most the
#      in-flight job, every stop must be broken by the SIGTERM->SIGKILL
#      escalation, and the merged BENCH_campaign.json must be
#      byte-identical to an undisturbed in-process run;
#   b) poison job: --inject-crash-job SIGSEGVs the worker process on one
#      job, every attempt. Bisection must isolate exactly that job,
#      quarantine it as outcome "crash", and the campaign must still
#      merge with nothing pending;
#   c) uncooperative hang: --inject-spin-job spins without polling
#      cancellation, so only the stall detector's escalation ends the
#      worker; the job must end quarantined, the campaign merged.

BIN="$1"
WORK="$2"
[ -n "$BIN" ] && [ -n "$WORK" ] || { echo "usage: $0 BIN WORKDIR"; exit 2; }

fail() { echo "supervisor-smoke: FAIL: $*"; exit 1; }

# ASan and TSan turn a SIGSEGV into a report and an exit code by default;
# the injected SIGSEGV of --inject-crash-job must stay a signal death, so
# the runs that inject one keep the signal (a no-op without a sanitizer).
with_segv_signal() {
  env "ASAN_OPTIONS=${ASAN_OPTIONS:+$ASAN_OPTIONS:}handle_segv=0" \
      "TSAN_OPTIONS=${TSAN_OPTIONS:+$TSAN_OPTIONS:}handle_segv=0" "$@"
}

rm -rf "$WORK" || fail "cannot clean $WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

# Chaos grid: 25 scenarios x 2 utils x 2 protocols = 100 jobs over 3
# shards. The chaos clock counts records written plus workers spawned:
# at least 103, past the schedule's worst-case last event (12 events x
# max gap 8 = 96).
GRID="--scenarios=25 --utils=0.3,0.6 --protocols=PCP-DA,2PL-HP \
  --shards=3 --horizon=300 --jobs=2"
SUP="--supervise --workers=3 --backoff-ms=20 --backoff-cap-ms=100"

# Small serial grid for the poison/hang phases: 4 cells x 2 protocols =
# 8 jobs in one shard, one job at a time, so jobs queued behind the bad
# one can only complete through bisection.
SMALL="--scenarios=4 --utils=0.4 --protocols=PCP-DA,2PL-HP --shards=1 \
  --horizon=300 --jobs=1"

# --- undisturbed in-process reference for phase a ----------------------
"$BIN" --out="$WORK/ref" $GRID > "$WORK/ref.out" 2>&1 || \
  fail "reference run failed (exit $?)"
[ -f "$WORK/ref/BENCH_campaign.json" ] || fail "reference: no BENCH"

# --- phase a: chaos run merges byte-identically ------------------------
"$BIN" --out="$WORK/chaos" $GRID $SUP --chaos-seed=20260809 \
  --chaos-kills=10 --chaos-stops=2 --stall-ms=2000 --term-grace-ms=500 \
  > "$WORK/chaos.out" 2>&1
rc=$?
[ $rc -eq 0 ] || fail "phase a: chaos run expected exit 0, got $rc"
grep -q '"chaos_kills_injected": 10' "$WORK/chaos/SUPERVISOR.json" || \
  fail "phase a: not all 10 SIGKILL injections fired"
grep -q '"chaos_stops_injected": 2' "$WORK/chaos/SUPERVISOR.json" || \
  fail "phase a: not all 2 SIGSTOP injections fired"
# Chaos hits each worker at most once, so 12 injections need 12 workers.
spawned=$(sed -n 's/.*"workers_spawned": \([0-9]*\).*/\1/p' \
  "$WORK/chaos/SUPERVISOR.json")
[ "${spawned:-0}" -ge 12 ] || \
  fail "phase a: 12 injections hit only ${spawned:-0} workers"
cmp -s "$WORK/chaos/BENCH_campaign.json" "$WORK/ref/BENCH_campaign.json" \
  || fail "phase a: chaos BENCH differs from undisturbed run"

# --- phase b: poison job is bisected and quarantined -------------------
with_segv_signal "$BIN" --out="$WORK/poison" $SMALL $SUP \
  --inject-crash-job=1 > "$WORK/poison.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase b: expected exit 1 (quarantined job), got $rc"
[ -f "$WORK/poison/BENCH_campaign.json" ] || \
  fail "phase b: poison job blocked the merge"
grep -q '"quarantined": 1' "$WORK/poison/MANIFEST.json" || \
  fail "phase b: manifest does not account exactly 1 quarantined job"
grep -q '"pending": 0' "$WORK/poison/MANIFEST.json" || \
  fail "phase b: jobs left pending behind the poison job"
[ -f "$WORK/poison/quarantine/job_000001.json" ] || \
  fail "phase b: poison job not quarantined"
[ -f "$WORK/poison/quarantine/job_000001.scn" ] || \
  fail "phase b: poison job has no .scn repro"
grep -q '"outcome": "crash"' "$WORK/poison/quarantine/job_000001.json" || \
  fail "phase b: poison job not recorded as a crash"

# --- phase c: uncooperative hang is escalated and quarantined ----------
"$BIN" --out="$WORK/hang" $SMALL $SUP --inject-spin-job=2 \
  --stall-ms=400 --term-grace-ms=200 > "$WORK/hang.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase c: expected exit 1 (quarantined job), got $rc"
[ -f "$WORK/hang/BENCH_campaign.json" ] || \
  fail "phase c: hung job blocked the merge"
grep -q '"quarantined": 1' "$WORK/hang/MANIFEST.json" || \
  fail "phase c: manifest does not account exactly 1 quarantined job"
grep -q '"pending": 0' "$WORK/hang/MANIFEST.json" || \
  fail "phase c: jobs left pending behind the hung job"
grep -q '"hang_escalations": [1-9]' "$WORK/hang/SUPERVISOR.json" || \
  fail "phase c: the stall detector never escalated"

echo "supervisor-smoke: PASS"
exit 0
