#!/bin/sh
# Campaign-engine smoke test, run by ctest as `campaign-smoke`.
#
#   campaign_smoke.sh <pcpda_campaign binary> <scratch dir>
#
# Four phases:
#   a) a campaign with a seeded crash (job 3 throws every attempt) and a
#      seeded hang (job 7 spins until the wall watchdog cancels it) must
#      quarantine both, still merge, and exit 1;
#   b) a campaign SIGKILL'd mid-run and re-invoked must resume and merge
#      byte-identically to an uninterrupted twin;
#   c) a campaign stopped gracefully (--stop-after, the deterministic
#      SIGINT stand-in) must stop within the shard, leave work pending
#      without a BENCH, then resume to the same byte-identical merge;
#   d) a campaign at --jobs=4 killed by a SIGSEGV poison job mid-grid —
#      a process death inside a group-commit batch, with other workers'
#      records written but possibly not yet fsynced — must resume to the
#      same byte-identical merge.

BIN="$1"
WORK="$2"
[ -n "$BIN" ] && [ -n "$WORK" ] || { echo "usage: $0 BIN WORKDIR"; exit 2; }

fail() { echo "campaign-smoke: FAIL: $*"; exit 1; }

# ASan and TSan turn a SIGSEGV into a report and an exit code by default;
# the injected SIGSEGV of --inject-crash-job must stay a signal death, so
# the runs that inject one keep the signal (a no-op without a sanitizer).
with_segv_signal() {
  env "ASAN_OPTIONS=${ASAN_OPTIONS:+$ASAN_OPTIONS:}handle_segv=0" \
      "TSAN_OPTIONS=${TSAN_OPTIONS:+$TSAN_OPTIONS:}handle_segv=0" "$@"
}

rm -rf "$WORK" || fail "cannot clean $WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"

# Small grid shared by every phase: 4 scenarios x 2 utils x 2 protocols
# = 16 jobs over 2 shards (phase a), 10 x 2 x 2 = 40 jobs (phases b, c).
GRID_A="--scenarios=4 --utils=0.3,0.6 --protocols=PCP-DA,PCP --shards=2 \
  --horizon=400 --jobs=4"
GRID_BC="--scenarios=10 --utils=0.2,0.5 --protocols=PCP-DA,2PL-HP \
  --shards=2 --horizon=400 --jobs=2"

# --- phase a: crash + hang are quarantined, campaign still merges ------
"$BIN" --out="$WORK/a" $GRID_A --retries=1 --wall-budget-ms=500 \
  --inject-crash=3 --inject-hang=7 > "$WORK/a.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase a: expected exit 1 (quarantined jobs), got $rc"
[ -f "$WORK/a/BENCH_campaign.json" ] || fail "phase a: no BENCH written"
[ -f "$WORK/a/quarantine/job_000003.json" ] || \
  fail "phase a: crash job not quarantined"
[ -f "$WORK/a/quarantine/job_000003.scn" ] || \
  fail "phase a: crash job has no .scn repro"
[ -f "$WORK/a/quarantine/job_000007.json" ] || \
  fail "phase a: hang job not quarantined"
grep -q '"quarantined": 2' "$WORK/a/MANIFEST.json" || \
  fail "phase a: manifest does not account 2 quarantined jobs"
grep -q '"pending": 0' "$WORK/a/MANIFEST.json" || \
  fail "phase a: manifest reports pending jobs"

# --- uninterrupted reference run for phases b and c --------------------
"$BIN" --out="$WORK/ref" $GRID_BC > "$WORK/ref.out" 2>&1 || \
  fail "reference run failed (exit $?)"
[ -f "$WORK/ref/BENCH_campaign.json" ] || fail "reference: no BENCH"

# --- phase b: SIGKILL mid-run, then resume -----------------------------
"$BIN" --out="$WORK/b" $GRID_BC > "$WORK/b.out" 2>&1 &
pid=$!
# Give it a moment to start appending records, then kill -9. If the
# campaign already finished, the resume below is a no-op — the
# byte-identical assertion holds either way.
sleep 0.2
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null
"$BIN" --out="$WORK/b" $GRID_BC > "$WORK/b2.out" 2>&1
rc=$?
[ $rc -eq 0 ] || fail "phase b: resume expected exit 0, got $rc"
cmp -s "$WORK/b/BENCH_campaign.json" "$WORK/ref/BENCH_campaign.json" || \
  fail "phase b: resumed BENCH differs from uninterrupted run"

# --- phase c: graceful stop, then resume -------------------------------
"$BIN" --out="$WORK/c" $GRID_BC --stop-after=5 > "$WORK/c.out" 2>&1
rc=$?
[ $rc -eq 1 ] || fail "phase c: expected exit 1 (stopped partial), got $rc"
[ ! -f "$WORK/c/BENCH_campaign.json" ] || \
  fail "phase c: partial campaign must not merge"
[ -f "$WORK/c/MANIFEST.json" ] || fail "phase c: no partial manifest"
grep -q '"stopped": true' "$WORK/c/MANIFEST.json" || \
  fail "phase c: manifest does not record the stop"
# The stop cancels in-flight work at once, not at the next shard
# boundary: five completions plus at most the one other job in flight at
# --jobs=2 are recorded.
recorded=$(grep -o '"recorded": [0-9]*' "$WORK/c/MANIFEST.json" | \
  awk '{ sum += $2 } END { print sum + 0 }')
[ "$recorded" -ge 5 ] && [ "$recorded" -le 6 ] || \
  fail "phase c: --stop-after=5 --jobs=2 recorded $recorded jobs (want 5-6)"
"$BIN" --out="$WORK/c" $GRID_BC > "$WORK/c2.out" 2>&1
rc=$?
[ $rc -eq 0 ] || fail "phase c: resume expected exit 0, got $rc"
grep -q "resumed" "$WORK/c2.out" || fail "phase c: resume not reported"
cmp -s "$WORK/c/BENCH_campaign.json" "$WORK/ref/BENCH_campaign.json" || \
  fail "phase c: resumed BENCH differs from uninterrupted run"

# --- phase d: process death inside a group-commit batch, then resume ---
# Job 25 sits mid-way through shard 1 and is among the last its executor
# starts, so several records are appended around the moment it kills
# the process. Every record whose write(2) returned survives a process
# death; only a machine crash could lose the unsynced tail.
with_segv_signal "$BIN" --out="$WORK/d" $GRID_BC --jobs=4 \
  --inject-crash-job=25 > "$WORK/d.out" 2>&1
rc=$?
[ $rc -gt 128 ] || fail "phase d: expected death by signal, got exit $rc"
[ ! -f "$WORK/d/BENCH_campaign.json" ] || \
  fail "phase d: a killed campaign must not have merged"
"$BIN" --out="$WORK/d" $GRID_BC --jobs=4 > "$WORK/d2.out" 2>&1
rc=$?
[ $rc -eq 0 ] || fail "phase d: resume expected exit 0, got $rc"
grep -Eq ', [1-9][0-9]* resumed' "$WORK/d2.out" || \
  fail "phase d: resume reused no checkpoint records"
cmp -s "$WORK/d/BENCH_campaign.json" "$WORK/ref/BENCH_campaign.json" || \
  fail "phase d: resumed BENCH differs from uninterrupted run"

echo "campaign-smoke: PASS"
exit 0
