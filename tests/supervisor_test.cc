// Tests for the process-isolated campaign supervisor (src/supervisor/):
// the seeded chaos schedule, shard lookup, and — spawning the real
// pcpda_campaign binary as workers — end-to-end supervision:
// byte-identical merges vs in-process runs (test hooks included),
// poison-job isolation by bisection, chaos-kill recovery, and clean
// degradation when the worker binary is broken.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "supervisor/chaos.h"
#include "supervisor/supervisor.h"

namespace pcpda {
namespace {

namespace fs = std::filesystem;

fs::path TestDir(const std::string& name) {
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("supervisor_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

/// The campaign flags of a 12-job grid across 2 shards (campaign_test's
/// SmallSpec, sharded). Workers get these flags; SmallSpec() parses them,
/// so the spec is written down once.
const std::vector<std::string> kSmallSpecFlags = {
    "--seed=7",      "--scenarios=3",         "--utils=0.3,0.6",
    "--horizon=300", "--protocols=PCP-DA,PCP", "--retries=1",
    "--shards=2",    "--txns=4",              "--items=8"};

CampaignSpec SmallSpec() {
  CampaignSpec spec;
  CampaignOptions unused;
  for (const std::string& flag : kSmallSpecFlags) {
    EXPECT_TRUE(ApplyCampaignFlag(flag, &spec, &unused).ok()) << flag;
  }
  return spec;
}

std::string MustRead(const fs::path& path) {
  auto contents = ReadFileToString(path.string());
  EXPECT_TRUE(contents.ok()) << path << ": "
                             << contents.status().ToString();
  return contents.ok() ? *contents : std::string();
}

// --- ChaosSchedule ---------------------------------------------------------

TEST(ChaosScheduleTest, SeedDeterminesEventsExactly) {
  const ChaosSchedule a = ChaosSchedule::Make(42, 10, 3);
  const ChaosSchedule b = ChaosSchedule::Make(42, 10, 3);
  ASSERT_EQ(a.events().size(), 13u);
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at_progress, b.events()[i].at_progress);
    EXPECT_EQ(a.events()[i].kill, b.events()[i].kill);
  }
  // A different seed must produce a different interleaving or spacing
  // (13 events with gap range [2,8] collide with ~0 probability).
  const ChaosSchedule c = ChaosSchedule::Make(43, 10, 3);
  bool differs = false;
  for (std::size_t i = 0; i < c.events().size(); ++i) {
    differs = differs ||
              c.events()[i].at_progress != a.events()[i].at_progress ||
              c.events()[i].kill != a.events()[i].kill;
  }
  EXPECT_TRUE(differs);
}

TEST(ChaosScheduleTest, KindCountsAndGapBoundsHold) {
  const ChaosSchedule schedule = ChaosSchedule::Make(7, 12, 5);
  int kills = 0, stops = 0;
  std::uint64_t prev = 0;
  for (const ChaosEvent& event : schedule.events()) {
    (event.kill ? kills : stops)++;
    const std::uint64_t gap = event.at_progress - prev;
    EXPECT_GE(gap, 2u);
    EXPECT_LE(gap, 8u);
    prev = event.at_progress;
  }
  EXPECT_EQ(kills, 12);
  EXPECT_EQ(stops, 5);
}

TEST(ChaosScheduleTest, DueAdvancesPastReturnedEvents) {
  ChaosSchedule schedule = ChaosSchedule::Make(1, 3, 0);
  EXPECT_TRUE(schedule.active());
  EXPECT_EQ(schedule.Due(0), nullptr) << "no event is due before gap 2";
  // At a heartbeat count past the last event, Due drains one per call.
  int drained = 0;
  while (schedule.Due(1'000'000) != nullptr) ++drained;
  EXPECT_EQ(drained, 3);
  EXPECT_FALSE(schedule.active());
}

TEST(ChaosScheduleTest, EmptyScheduleIsInert) {
  ChaosSchedule schedule = ChaosSchedule::Make(9, 0, 0);
  EXPECT_FALSE(schedule.active());
  EXPECT_EQ(schedule.Due(1'000'000), nullptr);
}

// --- CampaignSpec::ShardOfJob -----------------------------------------------

TEST(SpecFlagsTest, ShardOfJobInvertsJobsForShard) {
  CampaignSpec spec = SmallSpec();
  spec.scenarios = 5;
  spec.shards = 3;
  for (int shard = 0; shard < spec.shards; ++shard) {
    for (const CampaignJob& job : spec.JobsForShard(shard)) {
      EXPECT_EQ(spec.ShardOfJob(job.id), shard) << "job " << job.id;
    }
  }
}

// --- end-to-end supervision (spawns the real worker binary) ----------------

#ifdef PCPDA_BINARY_DIR

std::string WorkerBinary() {
  return std::string(PCPDA_BINARY_DIR "/examples/pcpda_campaign");
}

/// Runs workers on kSmallSpecFlags plus `flags`, without fsync (logic
/// tests; durability is the smoke's job).
SupervisorOptions FastOptions(const fs::path& dir,
                              const std::vector<std::string>& flags = {
                                  "--jobs=2"}) {
  SupervisorOptions options;
  options.out_dir = dir.string();
  options.worker_command = {WorkerBinary(), "--no-fsync"};
  for (const auto* list : {&kSmallSpecFlags, &flags}) {
    options.worker_command.insert(options.worker_command.end(),
                                  list->begin(), list->end());
  }
  options.max_workers = 2;
  options.stall_timeout_ms = 5'000;
  options.term_grace_ms = 1'000;
  options.backoff_base_ms = 10;
  options.backoff_cap_ms = 50;
  return options;
}

/// ASan and TSan turn a SIGSEGV into a report and an exit code by
/// default, but the supervisor classifies a worker's death by its
/// signal. Appends `handle_segv=0` to the sanitizer options that forked
/// workers inherit (a no-op without a sanitizer; this test process read
/// its own options at start-up and keeps them).
void KeepWorkerSegvSignal() {
  for (const char* name : {"ASAN_OPTIONS", "TSAN_OPTIONS"}) {
    const char* value = std::getenv(name);
    std::string options = value != nullptr && *value != '\0'
                              ? std::string(value) + ":"
                              : std::string();
    options += "handle_segv=0";
    ::setenv(name, options.c_str(), 1);
  }
}

/// The BENCH bytes of an in-process run of SmallSpec() under `hooks`.
std::string InProcessBench(const std::string& name,
                           const CampaignOptions::TestHooks& hooks) {
  const fs::path dir = TestDir(name + "_" + std::to_string(::getpid()));
  CampaignOptions options;
  options.out_dir = dir.string();
  options.jobs = 2;
  options.fsync = false;
  options.hooks = hooks;
  Campaign campaign(SmallSpec(), options);
  auto report = campaign.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return MustRead(dir / "BENCH_campaign.json");
}

/// The BENCH bytes of an undisturbed in-process run — the golden value
/// every supervised run must reproduce byte-identically.
const std::string& ReferenceBench() {
  static const std::string* bench =
      new std::string(InProcessBench("reference", {}));
  return *bench;
}

TEST(SupervisorTest, SupervisedRunMergesByteIdenticallyToInProcess) {
  const fs::path dir = TestDir("clean");
  Supervisor supervisor(SmallSpec(), FastOptions(dir));
  const auto report = supervisor.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  EXPECT_EQ(report->ok, 12);
  EXPECT_EQ(report->pending, 0);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
  const SupervisorStats& stats = supervisor.stats();
  EXPECT_EQ(stats.workers_spawned, 2) << "one worker per shard";
  EXPECT_EQ(stats.clean_exits, 2);
  EXPECT_EQ(stats.crash_deaths, 0);
  EXPECT_GE(stats.heartbeats, 12) << "one per record plus startup";
  EXPECT_TRUE(fs::exists(dir / "SUPERVISOR.json"));
}

TEST(SupervisorTest, PoisonJobIsBisectedQuarantinedAndOnlyIt) {
  const fs::path dir = TestDir("poison");
  CampaignSpec spec = SmallSpec();
  // Job 1 of 12 SIGSEGVs its process on every attempt. Serial workers
  // (--jobs=1) leave jobs 2..5 of shard 0 unrecorded behind it, so only
  // bisection can get them done.
  const SupervisorOptions options =
      FastOptions(dir, {"--jobs=1", "--inject-crash-job=1"});
  KeepWorkerSegvSignal();
  Supervisor supervisor(spec, options);
  const auto report = supervisor.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged)
      << "the poison job must not block the campaign";
  EXPECT_EQ(report->ok, 11);
  EXPECT_EQ(report->quarantined, 1);
  EXPECT_EQ(report->pending, 0);

  const SupervisorStats& stats = supervisor.stats();
  EXPECT_GE(stats.crash_deaths, 2);
  EXPECT_GE(stats.bisections, 1)
      << "jobs 2..5 pending behind the poison force a range split";
  EXPECT_EQ(stats.poison_jobs, 1);
  EXPECT_EQ(stats.abandoned_tasks, 0);

  // Exactly the poison job carries outcome "crash"; it is quarantined
  // with a replayable .scn like any other poisoned job.
  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     spec.Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int crashes = 0;
  for (const JobRecord& record : loaded->records) {
    if (record.outcome == "crash") {
      EXPECT_EQ(record.job_id, 1);
      EXPECT_EQ(record.code, "Internal");
      EXPECT_TRUE(record.quarantined());
      ++crashes;
    }
  }
  EXPECT_EQ(crashes, 1);
  EXPECT_TRUE(fs::exists(dir / "quarantine" / "job_000001.json"));
  EXPECT_TRUE(fs::exists(dir / "quarantine" / "job_000001.scn"));
}

TEST(SupervisorTest, ChaosKillsCostRetriesNeverResults) {
  const fs::path dir = TestDir("chaos");
  SupervisorOptions options = FastOptions(dir);
  options.chaos_seed = 1234;
  options.chaos_kills = 4;  // sized to the 12-job grid's heartbeat count
  // One worker at a time, so the second shard's worker spawns only after
  // the first shard's 6 records are counted: the clock then reads 8, at
  // or past the first event (gaps are at most 8), and Spawn hands that
  // event to the new worker before it can write. Two concurrent workers
  // could both finish before the clock got there.
  options.max_workers = 1;
  Supervisor supervisor(SmallSpec(), options);
  const auto report = supervisor.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  EXPECT_EQ(report->ok, 12);
  EXPECT_EQ(report->quarantined, 0);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench())
      << "chaos may cost respawns, never a byte of the merged result";
  const SupervisorStats& stats = supervisor.stats();
  EXPECT_GE(stats.chaos_kills_injected, 1);
  EXPECT_EQ(stats.abandoned_tasks, 0)
      << "chaos deaths must not consume task attempts";
  EXPECT_EQ(stats.poison_jobs, 0)
      << "chaos deaths must not trip bisection into false positives";
}

TEST(SupervisorTest, WorkersRunTheTestHooksOfTheirCommand) {
  // A lint defect in cell 2 quarantines jobs 4 and 5 as generator
  // defects. The supervised merge must match the in-process one with the
  // same hook, which only holds if the flag reaches the workers.
  const fs::path dir = TestDir("lint_defect");
  Supervisor supervisor(
      SmallSpec(),
      FastOptions(dir, {"--jobs=2", "--inject-lint-defect-cell=2"}));
  const auto report = supervisor.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->merged);
  EXPECT_EQ(report->quarantined, 2);
  CampaignOptions::TestHooks hooks;
  hooks.lint_defect_cell = 2;
  const std::string in_process = InProcessBench("lint_defect_ref", hooks);
  EXPECT_NE(in_process, ReferenceBench());
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), in_process);
}

TEST(SupervisorTest, BrokenWorkerBinaryDegradesToAbandonedTasksNotHang) {
  const fs::path dir = TestDir("broken");
  SupervisorOptions options = FastOptions(dir);
  options.worker_command[0] = "/nonexistent/worker";
  options.max_task_attempts = 2;
  Supervisor supervisor(SmallSpec(), options);
  const auto report = supervisor.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->merged);
  EXPECT_EQ(report->pending, 12) << "nothing ran, nothing lost";
  const SupervisorStats& stats = supervisor.stats();
  EXPECT_EQ(stats.abandoned_tasks, 2);
  EXPECT_GE(stats.error_exits, 2) << "exec failure exits 127";
  // The partial manifest still lands, so the failure is diagnosable.
  EXPECT_TRUE(fs::exists(dir / "MANIFEST.json"));
}

#endif  // PCPDA_BINARY_DIR

}  // namespace
}  // namespace pcpda
