#!/bin/sh
# Supervisor smoke test, run by ctest as `supervisor-smoke`.
#
#   supervisor_smoke.sh <pcpda_campaign binary> <scratch dir>
#
# Two phases against pcpda_campaign's --supervise restart loop:
#   a) poison job: --inject-crash-job SIGSEGVs the process on one job,
#      every time it runs. The restart loop resumes twice; the second
#      resume records exactly that job as outcome "crash" from its two
#      intent lines, quarantines it, and the campaign merges with
#      nothing pending;
#   b) uncooperative hang: --inject-spin-job spins without polling
#      cancellation, so the watchdog kills the process one wall budget
#      after the cancel; the job ends quarantined as a crash, the
#      campaign merged.

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

# Small serial grid for both phases: 4 cells x 2 protocols = 8 jobs in
# one shard, one job at a time, so jobs queued behind the bad one
# complete only once it is quarantined.
SMALL="--scenarios=4 --utils=0.4 --protocols=PCP-DA,2PL-HP --shards=1 \
  --horizon=300 --jobs=1"

# --- phase a: poison job is isolated by its intents and quarantined ----
with_segv_signal "$BIN" --out="$WORK/poison" $SMALL --supervise \
  --inject-crash-job=1 > "$WORK/poison.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase a: expected exit 1 (quarantined job), got $rc"
[ -f "$WORK/poison/BENCH_campaign.json" ] || \
  fail "phase a: poison job blocked the merge"
grep -q '"quarantined": 1' "$WORK/poison/MANIFEST.json" || \
  fail "phase a: manifest does not account exactly 1 quarantined job"
grep -q '"pending": 0' "$WORK/poison/MANIFEST.json" || \
  fail "phase a: jobs left pending behind the poison job"
[ -f "$WORK/poison/quarantine/job_000001.scn" ] || \
  fail "phase a: poison job has no .scn repro"
grep -q '"outcome": "crash"' "$WORK/poison/quarantine/job_000001.json" || \
  fail "phase a: poison job not recorded as a crash"
[ "$(grep -c 'resuming' "$WORK/poison.out")" -eq 2 ] || \
  fail "phase a: expected two restarts before the poison record"

# --- phase b: uncooperative hang ends its process, then is quarantined -
"$BIN" --out="$WORK/hang" $SMALL --supervise --inject-spin-job=2 \
  --wall-budget-ms=400 > "$WORK/hang.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase b: expected exit 1 (quarantined job), got $rc"
[ -f "$WORK/hang/BENCH_campaign.json" ] || \
  fail "phase b: hung job blocked the merge"
grep -q '"quarantined": 1' "$WORK/hang/MANIFEST.json" || \
  fail "phase b: manifest does not account exactly 1 quarantined job"
grep -q '"pending": 0' "$WORK/hang/MANIFEST.json" || \
  fail "phase b: jobs left pending behind the hung job"
grep -q '"outcome": "crash"' "$WORK/hang/quarantine/job_000002.json" || \
  fail "phase b: hung job not recorded as a crash"
grep -q 'watchdog: a job ignored its cancel' "$WORK/hang.out" || \
  fail "phase b: the watchdog never ended the process"

echo "supervisor-smoke: PASS"
exit 0
