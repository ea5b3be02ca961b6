// Tests for the crash-safe campaign engine (src/campaign/): grid
// indexing and shard partitioning, the checkpoint record and intent
// codec and its torn-tail handling, the group-commit writer, a failing
// checkpoint write, fingerprint guarding, and end-to-end campaigns —
// byte-identical merges across shard layouts, resume after a torn
// checkpoint or a SIGKILL, quarantine of crashing/hanging jobs, graceful
// stop with partial results — and, spawning the built pcpda_campaign,
// the --supervise restart loop: poison and spinning jobs quarantined
// alone, and its give-up rule.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pcpda {
namespace {

namespace fs = std::filesystem;

fs::path TestDir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / ("campaign_" + name);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
  return dir;
}

/// The campaign flags of a 3-scenario x 2-util x 2-protocol grid (12
/// jobs) that runs in well under a second — small enough for end-to-end
/// campaigns in unit tests. The pcpda_campaign runs below take these
/// flags; SmallSpec() parses them, so the grid is written down once.
const std::vector<std::string> kSmallSpecFlags = {
    "--seed=7",      "--scenarios=3",          "--utils=0.3,0.6",
    "--horizon=300", "--protocols=PCP-DA,PCP", "--retries=1",
    "--txns=4",      "--items=8"};

CampaignSpec SpecOf(const std::vector<std::string>& flags) {
  CampaignSpec spec;
  CampaignOptions unused;
  for (const std::string& flag : flags) {
    EXPECT_TRUE(ApplyCampaignFlag(flag, &spec, &unused).ok()) << flag;
  }
  return spec;
}

CampaignSpec SmallSpec() { return SpecOf(kSmallSpecFlags); }

CampaignOptions DirOptions(const fs::path& dir, int jobs = 2) {
  CampaignOptions options;
  options.out_dir = dir.string();
  options.jobs = jobs;
  options.fsync = false;  // logic tests; durability is the smoke test's job
  return options;
}

std::string MustRead(const fs::path& path) {
  auto contents = ReadFileToString(path.string());
  EXPECT_TRUE(contents.ok()) << path << ": " << contents.status().ToString();
  return contents.ok() ? *contents : std::string();
}

/// The BENCH bytes of an uninterrupted single-shard run of SmallSpec(),
/// computed once — the golden value every resume/reshard test compares
/// against.
const std::string& ReferenceBench() {
  static const std::string* bench = [] {
    // Per-process dir: ctest runs each test in its own process, and
    // parallel processes must not share (and remove_all) one directory.
    const fs::path dir =
        TestDir("reference_" + std::to_string(::getpid()));
    Campaign campaign(SmallSpec(), DirOptions(dir));
    auto report = campaign.Run();
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->merged);
    return new std::string(MustRead(dir / "BENCH_campaign.json"));
  }();
  return *bench;
}

JobRecord SampleRecord() {
  JobRecord record;
  record.job_id = 42;
  record.outcome = "ok";
  record.attempts = 2;
  record.code = "Ok";
  record.message = "";
  record.released = 30;
  record.committed = 28;
  record.misses = 1;
  record.blocking_ticks = 17;
  record.restarts = 3;
  record.deadlocks = 1;
  return record;
}

// --- CampaignSpec: grid indexing and sharding ------------------------------

TEST(CampaignSpecTest, ShardsPartitionTheGridExactlyOnceInIdOrder) {
  CampaignSpec spec = SmallSpec();
  spec.scenarios = 5;
  spec.utilizations = {0.2, 0.4, 0.6};
  spec.shards = 4;  // 15 cells over 4 shards: uneven split
  ASSERT_TRUE(spec.Validate().ok());

  std::int64_t next_id = 0;
  for (int shard = 0; shard < spec.shards; ++shard) {
    ASSERT_EQ(spec.CellBegin(shard) * spec.num_protocols(), next_id);
    for (const CampaignJob& job : spec.JobsForShard(shard)) {
      EXPECT_EQ(job.id, next_id) << "shard " << shard;
      ++next_id;
    }
    // Shards own whole cells: every protocol of a cell lands together.
    EXPECT_EQ(next_id % spec.num_protocols(), 0);
  }
  EXPECT_EQ(next_id, spec.num_jobs());
  EXPECT_EQ(spec.CellBegin(spec.shards), spec.num_cells());
}

TEST(CampaignSpecTest, JobByIdMatchesEnumerationAndSeedsPerCell) {
  const CampaignSpec spec = SmallSpec();
  for (const CampaignJob& job : spec.JobsForShard(0)) {
    const CampaignJob by_id = spec.JobById(job.id);
    EXPECT_EQ(by_id.id, job.id);
    EXPECT_EQ(by_id.scenario_index, job.scenario_index);
    EXPECT_EQ(by_id.util_index, job.util_index);
    EXPECT_EQ(by_id.protocol_index, job.protocol_index);
    EXPECT_EQ(by_id.scenario_seed, job.scenario_seed);
    // The seed is a per-cell SplitMix stream: shared by every protocol
    // of the cell, independent of shard layout.
    const std::int64_t cell =
        job.scenario_index * spec.num_utils() + job.util_index;
    EXPECT_EQ(job.scenario_seed, SplitMixSeed(spec.base_seed, cell));
  }
}

TEST(CampaignSpecTest, ValidateRejectsBadGrids) {
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.protocols.clear();
    return spec.Validate();
  }().ok());
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.scenarios = 0;
    return spec.Validate();
  }().ok());
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.shards = 0;
    return spec.Validate();
  }().ok());
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.shards = static_cast<int>(spec.num_cells()) + 1;
    return spec.Validate();
  }().ok());
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.utilizations = {0.0};
    return spec.Validate();
  }().ok());
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.utilizations = {1.5};
    return spec.Validate();
  }().ok());
  // A sweep point the generator would refuse for every scenario of its
  // cell (4 tasks x min 0.3 = 1.2 > 0.9) is caught up front.
  EXPECT_FALSE([&] {
    CampaignSpec spec = SmallSpec();
    spec.workload.distribution = UtilDistribution::kRandFixedSum;
    spec.workload.min_task_utilization = 0.3;
    spec.utilizations = {0.9};
    return spec.Validate();
  }().ok());
}

TEST(CampaignSpecTest, FingerprintIgnoresExecutionKnobsOnly) {
  const CampaignSpec base = SmallSpec();
  // Shard layout is execution, not identity: a 3-shard rerun may resume
  // a 1-shard checkpoint.
  CampaignSpec resharded = base;
  resharded.shards = 3;
  EXPECT_EQ(base.Fingerprint(), resharded.Fingerprint());

  // Everything that changes job inputs changes the fingerprint.
  CampaignSpec reseeded = base;
  reseeded.base_seed = 8;
  EXPECT_NE(base.Fingerprint(), reseeded.Fingerprint());
  CampaignSpec more_scenarios = base;
  more_scenarios.scenarios = 4;
  EXPECT_NE(base.Fingerprint(), more_scenarios.Fingerprint());
  CampaignSpec other_protocols = base;
  other_protocols.protocols = {ProtocolKind::kPcpDa};
  EXPECT_NE(base.Fingerprint(), other_protocols.Fingerprint());
  CampaignSpec other_sweep = base;
  other_sweep.utilizations = {0.3, 0.7};
  EXPECT_NE(base.Fingerprint(), other_sweep.Fingerprint());
  CampaignSpec other_horizon = base;
  other_horizon.horizon = 301;
  EXPECT_NE(base.Fingerprint(), other_horizon.Fingerprint());
  CampaignSpec other_workload = base;
  other_workload.workload.distribution = UtilDistribution::kBimodal;
  EXPECT_NE(base.Fingerprint(), other_workload.Fingerprint());
}

// --- ApplyCampaignFlag -------------------------------------------------------

Status Apply(const std::string& arg, CampaignSpec* spec) {
  CampaignOptions options;
  return ApplyCampaignFlag(arg, spec, &options);
}

TEST(CampaignFlagsTest, PrintedDoublesParseBitExactly) {
  // No short decimal form: printed at %.17g they must come back exactly,
  // or a campaign written down as flags would not reproduce its
  // fingerprint.
  const double a = 0.1 + 0.2, b = 1.0 / 3.0, c = 2.0 / 7.0;
  CampaignSpec spec;
  ASSERT_TRUE(Apply(StrFormat("--utils=%.17g,%.17g", a, b), &spec).ok());
  ASSERT_TRUE(Apply(StrFormat("--write-fraction=%.17g", c), &spec).ok());
  EXPECT_EQ(spec.utilizations, (std::vector<double>{a, b}));
  EXPECT_EQ(spec.workload.write_fraction, c);
}

TEST(CampaignFlagsTest, EachFlagSetsTheFieldItNames) {
  CampaignSpec expected;
  expected.base_seed = 12345678901234567890ull;
  expected.scenarios = 5;
  expected.shards = 2;
  expected.utilizations = {0.25, 0.5};
  expected.protocols = {ProtocolKind::kOpcp, ProtocolKind::kPcpDa};
  expected.horizon = 500;
  expected.max_sim_ticks = 900;
  expected.wall_budget_ms = 250;
  expected.max_retries = 3;
  WorkloadParams& w = expected.workload;
  w.distribution = UtilDistribution::kBimodal;
  w.num_transactions = 6;
  w.num_items = 12;
  w.min_period = 40;
  w.max_period = 800;
  w.min_ops = 1;
  w.max_ops = 4;
  w.write_fraction = 0.45;
  w.min_task_utilization = 0.01;
  w.max_task_utilization = 0.7;
  w.exp_mean_utilization = 0.2;
  w.bimodal_split = 0.4;
  w.bimodal_light_fraction = 0.75;

  CampaignSpec spec;
  CampaignOptions options;
  for (const char* flag :
       {"--seed=12345678901234567890", "--scenarios=5", "--shards=2",
        "--utils=0.25,0.5", "--protocols=PCP,PCP-DA", "--horizon=500",
        "--max-sim-ticks=900", "--wall-budget-ms=250", "--retries=3",
        "--dist=bimodal", "--txns=6", "--items=12", "--min-period=40",
        "--max-period=800", "--min-ops=1", "--max-ops=4",
        "--write-fraction=0.45", "--task-util-min=0.01",
        "--task-util-max=0.7", "--exp-mean=0.2", "--bimodal-split=0.4",
        "--bimodal-light=0.75", "--out=some/dir", "--shard=1", "--jobs=3",
        "--no-fsync", "--no-lint-preflight", "--inject-crash=10",
        "--inject-hang=11",
        "--inject-crash-job=12", "--inject-spin-job=13",
        "--inject-lint-defect-cell=14", "--stop-after=15"}) {
    EXPECT_TRUE(ApplyCampaignFlag(flag, &spec, &options).ok()) << flag;
  }
  EXPECT_EQ(spec, expected);
  EXPECT_EQ(options.out_dir, "some/dir");
  EXPECT_EQ(options.only_shard, 1);
  EXPECT_EQ(options.jobs, 3);
  EXPECT_FALSE(options.fsync);
  EXPECT_FALSE(options.lint_preflight);
  EXPECT_EQ(options.hooks.throw_job, 10);
  EXPECT_EQ(options.hooks.hang_job, 11);
  EXPECT_EQ(options.hooks.segv_job, 12);
  EXPECT_EQ(options.hooks.spin_job, 13);
  EXPECT_EQ(options.hooks.lint_defect_cell, 14);
  EXPECT_EQ(options.hooks.stop_after, 15);
}

TEST(CampaignFlagsTest, EveryFlagRejectsMalformedAndOutOfRangeValues) {
  // A malformed value, then an out-of-range one. --out takes any path.
  const std::vector<std::pair<std::string, std::vector<std::string>>> bad = {
      {"--seed", {"x", "-1", "18446744073709551616"}},
      {"--scenarios", {"lots", "0"}},
      {"--shards", {"1.5", "0"}},
      {"--utils", {"0.3,x", "0.3,-0.1"}},
      {"--protocols", {"PCP-DA,", "NOPE"}},
      {"--horizon", {"10x", "0"}},
      {"--max-sim-ticks", {"x", "-1"}},
      {"--wall-budget-ms", {"x", "-1"}},
      {"--retries", {"x", "-1"}},
      {"--dist", {"", "gaussian"}},
      {"--txns", {"x", "0"}},
      {"--items", {"x", "0"}},
      {"--min-period", {"x", "0"}},
      {"--max-period", {"x", "0"}},
      {"--min-ops", {"x", "-1"}},
      {"--max-ops", {"x", "-1"}},
      {"--write-fraction", {"x", "1.5"}},
      {"--task-util-min", {"x", "-0.1"}},
      {"--task-util-max", {"x", "2"}},
      {"--exp-mean", {"x", "1.01"}},
      {"--bimodal-split", {"x", "-1"}},
      {"--bimodal-light", {"x", "7"}},
      {"--shard", {"one", "-1"}},
      {"--jobs", {"x", "0"}},
      {"--inject-crash", {"x", "-2"}},
      {"--inject-hang", {"x", "-2"}},
      {"--inject-crash-job", {"x", "-2"}},
      {"--inject-spin-job", {"x", "-2"}},
      {"--inject-lint-defect-cell", {"x", "-2"}},
      {"--stop-after", {"x", "-2"}}};
  for (const auto& [flag, values] : bad) {
    for (const std::string& value : values) {
      CampaignSpec spec;
      const Status status = Apply(flag + "=" + value, &spec);
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
          << flag << "=" << value;
      EXPECT_EQ(status.message().rfind(flag + ": ", 0), 0u)
          << status.message();
    }
  }
  for (const char* flag : {"--no-fsync=1", "--no-lint-preflight=yes"}) {
    CampaignSpec spec;
    EXPECT_EQ(Apply(flag, &spec).code(), StatusCode::kInvalidArgument)
        << flag;
  }
}

TEST(CampaignFlagsTest, UnknownFlagIsNotFound) {
  // --supervise is the CLI's own switch, not a campaign flag; the rest
  // name no campaign field.
  for (const char* flag :
       {"--nope=1", "--seeds=1", "seed=1", "--supervise", "--worker",
        "--workers=2", "--stall-ms=5", "--chaos-seed=1", "--job-first=0"}) {
    CampaignSpec spec;
    EXPECT_EQ(Apply(flag, &spec).code(), StatusCode::kNotFound) << flag;
  }
}

// --- Checkpoint codec ------------------------------------------------------

TEST(CheckpointTest, RecordRoundTripsThroughEncodeDecode) {
  const JobRecord record = SampleRecord();
  const auto decoded = DecodeJobRecord(EncodeJobRecord(record));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, record);
}

TEST(CheckpointTest, MessageEscapingRoundTrips) {
  JobRecord record = SampleRecord();
  record.outcome = "failed";
  record.code = "Internal";
  record.message = "quote \" backslash \\ newline \n tab \t bell \x07 done";
  const std::string line = EncodeJobRecord(record);
  EXPECT_EQ(line.find('\n'), std::string::npos)
      << "encoded record must stay a single line";
  const auto decoded = DecodeJobRecord(line);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, record);
}

TEST(CheckpointTest, DecodeRejectsMalformedLines) {
  const std::string good = EncodeJobRecord(SampleRecord());
  EXPECT_FALSE(DecodeJobRecord("").ok());
  EXPECT_FALSE(DecodeJobRecord(good.substr(0, good.size() / 2)).ok())
      << "a truncated line must read as torn, not as a record";
  EXPECT_FALSE(DecodeJobRecord(good + "x").ok())
      << "trailing garbage must be rejected";
  JobRecord bad_outcome = SampleRecord();
  bad_outcome.outcome = "exploded";
  EXPECT_FALSE(DecodeJobRecord(EncodeJobRecord(bad_outcome)).ok());
  JobRecord bad_id = SampleRecord();
  bad_id.job_id = -1;
  EXPECT_FALSE(DecodeJobRecord(EncodeJobRecord(bad_id)).ok());
}

// --- Checkpoint writer / loader --------------------------------------------

TEST(CheckpointTest, WriterAppendsAndLoaderReadsBack) {
  const fs::path dir = TestDir("writer");
  const std::string path = (dir / "shard.ckpt").string();
  std::vector<JobRecord> records;
  for (int i = 0; i < 3; ++i) {
    JobRecord record = SampleRecord();
    record.job_id = i;
    record.committed = 10 + i;
    records.push_back(record);
  }

  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, /*fsync=*/false).ok());
  for (const JobRecord& record : records) {
    ASSERT_TRUE(writer.Append(record).ok());
  }
  ASSERT_TRUE(writer.Close().ok());

  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, records);
  EXPECT_EQ(loaded->torn_bytes, 0);
}

TEST(CheckpointTest, MissingFileIsAnEmptyCheckpoint) {
  const fs::path dir = TestDir("missing");
  const auto loaded = LoadCheckpoint((dir / "absent.ckpt").string(), "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->records.empty());
  EXPECT_EQ(loaded->valid_bytes, 0);
  EXPECT_EQ(loaded->torn_bytes, 0);
}

TEST(CheckpointTest, FingerprintMismatchIsAnError) {
  const fs::path dir = TestDir("fingerprint");
  const std::string path = (dir / "shard.ckpt").string();
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "campaign-a", 0, false).ok());
  ASSERT_TRUE(writer.Append(SampleRecord()).ok());
  ASSERT_TRUE(writer.Close().ok());

  const auto loaded = LoadCheckpoint(path, "campaign-b");
  ASSERT_FALSE(loaded.ok())
      << "resuming a different campaign into this checkpoint must fail";
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CheckpointTest, TornTailIsDiscardedAndTruncatedOnReopen) {
  const fs::path dir = TestDir("torn");
  const std::string path = (dir / "shard.ckpt").string();
  JobRecord first = SampleRecord();
  first.job_id = 0;
  JobRecord second = SampleRecord();
  second.job_id = 1;

  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, false).ok());
  ASSERT_TRUE(writer.Append(first).ok());
  ASSERT_TRUE(writer.Append(second).ok());
  ASSERT_TRUE(writer.Close().ok());

  // Simulate a crash mid-append: a partial third record with no newline.
  {
    std::ofstream tail(path, std::ios::app | std::ios::binary);
    tail << R"({"job": 2, "outcome": "ok)";
  }
  const auto torn = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(torn.ok()) << torn.status().ToString();
  EXPECT_EQ(torn->records, (std::vector<JobRecord>{first, second}));
  EXPECT_GT(torn->torn_bytes, 0);

  // Reopening at valid_bytes drops the tail; the next append lands clean.
  CheckpointWriter resume;
  ASSERT_TRUE(resume.Open(path, "fp", torn->valid_bytes, false).ok());
  JobRecord third = SampleRecord();
  third.job_id = 2;
  ASSERT_TRUE(resume.Append(third).ok());
  ASSERT_TRUE(resume.Close().ok());

  const auto reloaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->records,
            (std::vector<JobRecord>{first, second, third}));
  EXPECT_EQ(reloaded->torn_bytes, 0);
}

// --- Group commit ----------------------------------------------------------

TEST(CheckpointTest, GroupCommitFromFourThreadsMakesEveryAppendDurable) {
  const fs::path dir = TestDir("group_commit");
  const std::string path = (dir / "shard.ckpt").string();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 200;

  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, /*fsync=*/true).ok());

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        JobRecord record = SampleRecord();
        record.job_id = t * kPerThread + i;
        EXPECT_TRUE(writer.Append(record).ok());
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_TRUE(writer.Close().ok());

  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->torn_bytes, 0);
  ASSERT_EQ(loaded->records.size(),
            static_cast<std::size_t>(kThreads * kPerThread));
  std::set<std::int64_t> ids;
  for (const JobRecord& record : loaded->records) ids.insert(record.job_id);
  EXPECT_EQ(ids.size(), static_cast<std::size_t>(kThreads * kPerThread))
      << "interleaved appends must not tear or duplicate lines";
}

TEST(CheckpointTest, AppendAfterCloseFailsAndCloseIsIdempotent) {
  const fs::path dir = TestDir("closed");
  const std::string path = (dir / "shard.ckpt").string();
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, /*fsync=*/true).ok());
  ASSERT_TRUE(writer.Append(SampleRecord()).ok());
  ASSERT_TRUE(writer.Close().ok());
  EXPECT_TRUE(writer.Close().ok());
  const Status late = writer.Append(SampleRecord());
  EXPECT_EQ(late.code(), StatusCode::kFailedPrecondition)
      << late.ToString();
  EXPECT_TRUE(writer.Close().ok());

  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, (std::vector<JobRecord>{SampleRecord()}));
}

// --- Campaign end-to-end ---------------------------------------------------

TEST(CampaignTest, CompletesMergesAndResumesAsNoOp) {
  const fs::path dir = TestDir("complete");
  Campaign campaign(SmallSpec(), DirOptions(dir));
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->total_jobs, 12);
  EXPECT_EQ(report->ok + report->failed + report->quarantined +
                report->pending,
            report->total_jobs);
  EXPECT_EQ(report->pending, 0);
  EXPECT_TRUE(report->merged);
  EXPECT_FALSE(report->stopped);
  EXPECT_TRUE(fs::exists(dir / "MANIFEST.json"));
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());

  // Re-invoking resumes everything from the checkpoint: nothing re-runs
  // and the merged bytes do not change.
  Campaign again(SmallSpec(), DirOptions(dir));
  const auto resumed = again.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  for (const ShardSummary& shard : resumed->shards) {
    EXPECT_EQ(shard.ran, 0) << "shard " << shard.shard;
    EXPECT_EQ(shard.resumed, shard.jobs) << "shard " << shard.shard;
  }
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
}

TEST(CampaignTest, BenchBytesAreIndependentOfShardAndWorkerLayout) {
  const fs::path dir = TestDir("resharded");
  CampaignSpec spec = SmallSpec();
  spec.shards = 3;
  Campaign campaign(spec, DirOptions(dir, /*jobs=*/4));
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_TRUE(report->merged);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench())
      << "3 shards x 4 workers must merge byte-identically to 1 x 2";
}

TEST(CampaignTest, ResumesByteIdenticallyAfterTornCheckpoint) {
  const fs::path dir = TestDir("resume_torn");
  // Phase 1: a deterministic partial run — one worker, stop after 4
  // completions, so exactly 4 records land in the shard checkpoint.
  CampaignOptions partial = DirOptions(dir, /*jobs=*/1);
  partial.hooks.stop_after = 4;
  Campaign first(SmallSpec(), partial);
  const auto stopped = first.Run();
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_TRUE(stopped->stopped);
  EXPECT_FALSE(stopped->merged);
  EXPECT_EQ(stopped->pending, 8);
  EXPECT_FALSE(fs::exists(dir / "BENCH_campaign.json"));

  // Phase 2: tear the checkpoint tail, as a SIGKILL mid-append would.
  const std::string ckpt = Campaign::ShardPath(dir.string(), 0);
  const std::string bytes = MustRead(ckpt);
  ASSERT_GT(bytes.size(), 5u);
  {
    std::ofstream chopped(ckpt, std::ios::trunc | std::ios::binary);
    chopped << bytes.substr(0, bytes.size() - 5);
  }

  // Phase 3: resume. The torn record is re-run, the rest is reused, and
  // the merge is byte-identical to an uninterrupted campaign.
  Campaign second(SmallSpec(), DirOptions(dir, /*jobs=*/2));
  const auto resumed = second.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  ASSERT_EQ(resumed->shards.size(), 1u);
  EXPECT_GT(resumed->shards[0].torn_bytes, 0)
      << "the chopped tail was not detected as torn";
  EXPECT_EQ(resumed->shards[0].resumed, 3);
  EXPECT_EQ(resumed->shards[0].ran, 9);
  EXPECT_TRUE(resumed->merged);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
}

TEST(CampaignTest, CrashAndHangAreQuarantinedAndStillMerge) {
  const fs::path dir = TestDir("quarantine");
  CampaignSpec spec = SmallSpec();
  spec.wall_budget_ms = 500;  // the hang's only way out
  CampaignOptions options = DirOptions(dir);
  options.hooks.throw_job = 2;
  options.hooks.hang_job = 5;
  Campaign campaign(spec, options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->quarantined, 2);
  EXPECT_EQ(report->ok, 10);
  EXPECT_EQ(report->pending, 0);
  EXPECT_TRUE(report->merged)
      << "quarantined jobs are recorded; they must not block the merge";

  for (const char* name :
       {"job_000002.json", "job_000002.scn", "job_000005.json",
        "job_000005.scn"}) {
    EXPECT_TRUE(fs::exists(dir / "quarantine" / name)) << name;
  }

  // The checkpoint records carry the failure taxonomy: the crash
  // exhausted its retry and stayed Internal, the hang timed out once.
  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     SmallSpec().Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int checked = 0;
  for (const JobRecord& record : loaded->records) {
    if (record.job_id == 2) {
      EXPECT_EQ(record.outcome, "failed");
      EXPECT_EQ(record.code, "Internal");
      EXPECT_EQ(record.attempts, 2);
      EXPECT_TRUE(record.quarantined());
      ++checked;
    } else if (record.job_id == 5) {
      EXPECT_EQ(record.outcome, "timeout");
      EXPECT_EQ(record.attempts, 1) << "timeouts must not be retried";
      EXPECT_TRUE(record.quarantined());
      ++checked;
    } else {
      EXPECT_EQ(record.outcome, "ok") << "job " << record.job_id;
    }
  }
  EXPECT_EQ(checked, 2);
}

TEST(CampaignTest, GracefulStopWritesPartialManifestThenResumesClean) {
  const fs::path dir = TestDir("graceful_stop");
  CampaignOptions partial = DirOptions(dir, /*jobs=*/1);
  partial.hooks.stop_after = 3;
  Campaign first(SmallSpec(), partial);
  const auto stopped = first.Run();
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_TRUE(stopped->stopped);
  EXPECT_FALSE(stopped->merged);
  EXPECT_EQ(stopped->ok + stopped->failed + stopped->quarantined +
                stopped->pending,
            stopped->total_jobs);
  const std::string manifest = MustRead(dir / "MANIFEST.json");
  EXPECT_NE(manifest.find("\"stopped\": true"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"complete\": false"), std::string::npos)
      << manifest;
  EXPECT_FALSE(fs::exists(dir / "BENCH_campaign.json"));

  Campaign second(SmallSpec(), DirOptions(dir));
  const auto resumed = second.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_FALSE(resumed->stopped);
  EXPECT_TRUE(resumed->merged);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
  const std::string final_manifest = MustRead(dir / "MANIFEST.json");
  EXPECT_NE(final_manifest.find("\"complete\": true"), std::string::npos)
      << final_manifest;
}

TEST(CampaignTest, ExternalStopFlagSkipsEverything) {
  const fs::path dir = TestDir("external_stop");
  const std::atomic<bool> stop{true};
  CampaignOptions options = DirOptions(dir);
  options.stop = &stop;
  Campaign campaign(SmallSpec(), options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->stopped);
  EXPECT_EQ(report->pending, report->total_jobs);
  EXPECT_FALSE(report->merged);
  EXPECT_TRUE(fs::exists(dir / "MANIFEST.json"))
      << "even an immediately-stopped campaign leaves a manifest";
}

// --- checkpoint torn-tail edge cases ---------------------------------------

TEST(CheckpointTest, GarbageBytesAfterLastNewlineAreTornNotFatal) {
  const fs::path dir = TestDir("torn_garbage");
  const std::string path = (dir / "shard.ckpt").string();
  JobRecord record = SampleRecord();
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, false).ok());
  ASSERT_TRUE(writer.Append(record).ok());
  ASSERT_TRUE(writer.Close().ok());

  // Not a JSON prefix at all: raw bytes a disk- or FS-level corruption
  // (or a crash straddling an unrelated buffer) could leave behind.
  {
    std::ofstream tail(path, std::ios::app | std::ios::binary);
    const std::string garbage("\x00\xff garbage \x7f", 13);
    tail.write(garbage.data(),
               static_cast<std::streamsize>(garbage.size()));
  }
  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, (std::vector<JobRecord>{record}));
  EXPECT_GT(loaded->torn_bytes, 0);

  CheckpointWriter resume;
  ASSERT_TRUE(resume.Open(path, "fp", loaded->valid_bytes, false).ok());
  ASSERT_TRUE(resume.Close().ok());
  const auto clean = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(clean.ok());
  EXPECT_EQ(clean->torn_bytes, 0) << "reopen must truncate the garbage";
  EXPECT_EQ(clean->records, (std::vector<JobRecord>{record}));
}

TEST(CheckpointTest, ZeroLengthTrailingRecordIsRejectedAsTorn) {
  const fs::path dir = TestDir("torn_empty");
  const std::string path = (dir / "shard.ckpt").string();
  JobRecord record = SampleRecord();
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, false).ok());
  ASSERT_TRUE(writer.Append(record).ok());
  ASSERT_TRUE(writer.Close().ok());

  // A lone '\n': a zero-length record line. It *is* newline-terminated,
  // so naive tail handling would try to decode "" as a record; it must
  // be treated as torn, not crash the load or sneak in as data.
  {
    std::ofstream tail(path, std::ios::app | std::ios::binary);
    tail << "\n";
  }
  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, (std::vector<JobRecord>{record}));
  EXPECT_GT(loaded->torn_bytes, 0);

  CheckpointWriter resume;
  ASSERT_TRUE(resume.Open(path, "fp", loaded->valid_bytes, false).ok());
  JobRecord next = SampleRecord();
  next.job_id = 43;
  ASSERT_TRUE(resume.Append(next).ok());
  ASSERT_TRUE(resume.Close().ok());
  const auto reloaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded->records, (std::vector<JobRecord>{record, next}));
  EXPECT_EQ(reloaded->torn_bytes, 0);
}

// --- intent and cancel lines ------------------------------------------------

TEST(CheckpointTest, IntentLineRoundTrips) {
  const fs::path dir = TestDir("intent");
  const std::string path = (dir / "shard.ckpt").string();
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, /*fsync=*/true).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 7).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 9).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 7).ok());
  ASSERT_TRUE(writer.Close().ok());

  const std::string text = MustRead(path);
  EXPECT_NE(text.find("\n{\"intent\":9}\n"), std::string::npos) << text;
  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded->records.empty());
  EXPECT_EQ(loaded->unresolved_intents,
            (std::map<std::int64_t, int>{{7, 2}, {9, 1}}));
  EXPECT_EQ(loaded->valid_bytes, static_cast<std::int64_t>(text.size()));
  EXPECT_EQ(loaded->torn_bytes, 0);
}

TEST(CheckpointTest, TornIntentLineIsATornTail) {
  for (const char* tail : {"{\"intent\":4", "{\"intent\":4x}\n",
                           "{\"intent\":-4}\n", "{\"cancel\":}\n"}) {
    SCOPED_TRACE(tail);
    const fs::path dir = TestDir("torn_intent");
    const std::string path = (dir / "shard.ckpt").string();
    CheckpointWriter writer;
    ASSERT_TRUE(writer.Open(path, "fp", 0, false).ok());
    ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 3).ok());
    ASSERT_TRUE(writer.Append(SampleRecord()).ok());
    ASSERT_TRUE(writer.Close().ok());
    {
      std::ofstream torn(path, std::ios::app | std::ios::binary);
      torn << tail << "{\"intent\":5}\n";
    }
    const auto loaded = LoadCheckpoint(path, "fp");
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded->records, (std::vector<JobRecord>{SampleRecord()}));
    EXPECT_EQ(loaded->unresolved_intents,
              (std::map<std::int64_t, int>{{3, 1}}))
        << "nothing behind a torn line counts, intents included";
    EXPECT_GT(loaded->torn_bytes, 0);

    CheckpointWriter resume;
    ASSERT_TRUE(resume.Open(path, "fp", loaded->valid_bytes, false).ok());
    ASSERT_TRUE(resume.AppendMark(JobMark::kIntent, 3).ok());
    ASSERT_TRUE(resume.Close().ok());
    const auto reloaded = LoadCheckpoint(path, "fp");
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded->torn_bytes, 0);
    EXPECT_EQ(reloaded->unresolved_intents,
              (std::map<std::int64_t, int>{{3, 2}}));
  }
}

TEST(CheckpointTest, RecordResolvesItsIntents) {
  const fs::path dir = TestDir("resolve");
  const std::string path = (dir / "shard.ckpt").string();
  JobRecord one = SampleRecord();
  one.job_id = 1;
  CheckpointWriter writer;
  ASSERT_TRUE(writer.Open(path, "fp", 0, false).ok());
  for (const std::int64_t job : {1, 2, 3, 1}) {
    ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, job).ok());
  }
  // A record resolves every intent of its job, earlier or later; a
  // cancel resolves the intents before it only.
  ASSERT_TRUE(writer.Append(one).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 1).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kCancel, 2).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kCancel, 3).ok());
  ASSERT_TRUE(writer.AppendMark(JobMark::kIntent, 3).ok());
  ASSERT_TRUE(writer.Close().ok());

  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records, (std::vector<JobRecord>{one}));
  EXPECT_EQ(loaded->unresolved_intents,
            (std::map<std::int64_t, int>{{3, 1}}));
  EXPECT_EQ(loaded->torn_bytes, 0);
}

TEST(CheckpointTest, VersionOneCheckpointIsRefused) {
  // Written before intent lines existed: its header says "v":1.
  const fs::path dir = TestDir("version_one");
  const std::string path = (dir / "shard.ckpt").string();
  {
    std::ofstream old(path, std::ios::binary);
    old << "{\"campaign\":\"fp\",\"v\":1}\n"
        << EncodeJobRecord(SampleRecord()) << "\n";
  }
  const auto loaded = LoadCheckpoint(path, "fp");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CampaignTest, FingerprintMismatchedShardFileIsRefusedByRun) {
  const fs::path dir = TestDir("fp_mismatch");
  // A checkpoint from a *different* campaign (other seed) in our slot.
  CampaignSpec other = SmallSpec();
  other.base_seed = 999;
  {
    CheckpointWriter writer;
    ASSERT_TRUE(writer
                    .Open(Campaign::ShardPath(dir.string(), 0),
                          other.Fingerprint(), 0, false)
                    .ok());
    ASSERT_TRUE(writer.Append(SampleRecord()).ok());
    ASSERT_TRUE(writer.Close().ok());
  }
  Campaign campaign(SmallSpec(), DirOptions(dir));
  const auto report = campaign.Run();
  ASSERT_FALSE(report.ok())
      << "resuming a different campaign's checkpoint must be refused, "
         "never silently remixed";
  EXPECT_EQ(report.status().code(), StatusCode::kFailedPrecondition);
}

// --- A failing checkpoint write ------------------------------------------

/// Byte length of the checkpoint a serial single-shard run of
/// SmallSpec() writes, up to and including its `records`-th record line
/// (the header and the intent lines before it included).
std::int64_t SerialCheckpointPrefix(int records) {
  const fs::path dir =
      TestDir("serial_prefix_" + std::to_string(::getpid()));
  Campaign campaign(SmallSpec(), DirOptions(dir, /*jobs=*/1));
  const auto report = campaign.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = MustRead(Campaign::ShardPath(dir.string(), 0));
  std::size_t end = 0;
  for (int seen = 0; seen < records;) {
    const std::size_t line = text.find("\n{\"job\":", end);
    if (line == std::string::npos) return -1;
    end = text.find('\n', line + 1);
    if (end == std::string::npos) return -1;
    ++seen;
  }
  return static_cast<std::int64_t>(end + 1);
}

TEST(CampaignTest, AppendFailureAbortsCleanlyAndResumesByteIdentically) {
  const std::int64_t limit = SerialCheckpointPrefix(5);
  ASSERT_GT(limit, 0);
  const fs::path dir = TestDir("append_failure");
  // Serial worker under a file-size limit that ends exactly after the
  // 5th record: the 6th job's intent write(2) fails with EFBIG (SIGXFSZ
  // ignored). The engine must fail loudly (exit-2 path), keep the
  // durable prefix intact, and resume byte-identically once the limit
  // is lifted.
  struct rlimit saved_limit;
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  struct rlimit limited = saved_limit;
  limited.rlim_cur = static_cast<rlim_t>(limit);
  const auto saved_handler = std::signal(SIGXFSZ, SIG_IGN);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &limited), 0);
  Campaign campaign(SmallSpec(), DirOptions(dir, /*jobs=*/1));
  const auto report = campaign.Run();
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved_limit), 0);
  std::signal(SIGXFSZ, saved_handler);
  ASSERT_FALSE(report.ok())
      << "a lost append means lost durability; it must not be reported "
         "as success";
  EXPECT_EQ(report.status().code(), StatusCode::kInternal);
  EXPECT_NE(report.status().message().find(std::strerror(EFBIG)),
            std::string::npos)
      << report.status().ToString();

  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     SmallSpec().Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 5u)
      << "the records before the failure stay durable";

  Campaign resume(SmallSpec(), DirOptions(dir));
  const auto resumed = resume.Run();
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_TRUE(resumed->merged);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
}

TEST(CampaignTest, StopAfterCountsCompletionsOnTheWorkerWithFsyncOn) {
  const fs::path dir = TestDir("stop_after_fsync");
  CampaignOptions options = DirOptions(dir, /*jobs=*/1);
  options.fsync = true;
  options.hooks.stop_after = 4;
  Campaign campaign(SmallSpec(), options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->stopped);
  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     SmallSpec().Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(), 4u)
      << "a serial campaign stops after exactly stop_after records";
}

// --- new outcomes: generator_defect and crash ------------------------------

TEST(CheckpointTest, GeneratorDefectAndCrashOutcomesRoundTrip) {
  for (const char* outcome : {"generator_defect", "crash"}) {
    JobRecord record = SampleRecord();
    record.outcome = outcome;
    record.code = outcome == std::string("crash") ? "Internal"
                                                  : "FailedPrecondition";
    record.message = "why it was poisoned";
    const auto decoded = DecodeJobRecord(EncodeJobRecord(record));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, record);
    EXPECT_TRUE(decoded->quarantined()) << outcome;
    EXPECT_FALSE(decoded->accepted()) << outcome;
  }
}

TEST(CampaignTest, LintPreflightQuarantinesDefectiveCellAsGeneratorBug) {
  const fs::path dir = TestDir("lint_preflight");
  CampaignOptions options = DirOptions(dir);
  options.hooks.lint_defect_cell = 2;
  Campaign campaign(SmallSpec(), options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Both protocol jobs of cell 2 (ids 4 and 5) are rejected before any
  // simulation; the campaign still completes and merges.
  EXPECT_EQ(report->quarantined, 2);
  EXPECT_EQ(report->ok, 10);
  EXPECT_EQ(report->pending, 0);
  EXPECT_TRUE(report->merged);

  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     SmallSpec().Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  int defects = 0;
  for (const JobRecord& record : loaded->records) {
    if (record.job_id == 4 || record.job_id == 5) {
      EXPECT_EQ(record.outcome, "generator_defect");
      EXPECT_EQ(record.code, "FailedPrecondition");
      EXPECT_EQ(record.attempts, 1)
          << "a deterministic lint rejection must not be retried";
      EXPECT_NE(record.message.find("lint pre-flight"), std::string::npos);
      ++defects;
    } else {
      EXPECT_EQ(record.outcome, "ok") << "job " << record.job_id;
    }
  }
  EXPECT_EQ(defects, 2);
  // The offending scenario is quarantined for the generator's author.
  EXPECT_TRUE(fs::exists(dir / "quarantine" / "job_000004.scn"));
  EXPECT_TRUE(fs::exists(dir / "quarantine" / "job_000005.json"));

  // The defect is charged to the generator, not the protocols: the
  // merged bench must not count it in any protocol's failed tally.
  const std::string bench = MustRead(dir / "BENCH_campaign.json");
  EXPECT_NE(bench.find("\"generator_defect\""), std::string::npos);
  EXPECT_EQ(bench.find("\"failed\": 1"), std::string::npos) << bench;
}

TEST(CampaignTest, LintPreflightOffRunsTheDefectiveCellAnyway) {
  const fs::path dir = TestDir("lint_off");
  CampaignOptions options = DirOptions(dir);
  options.hooks.lint_defect_cell = 2;
  options.lint_preflight = false;
  Campaign campaign(SmallSpec(), options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The injected defect is a dangling `expect` assertion — lint-visible
  // but harmless to simulate, so with the gate off everything passes.
  EXPECT_EQ(report->ok, 12);
  EXPECT_EQ(report->quarantined, 0);
}

// --- intent records end to end ---------------------------------------------

/// The unresolved intents in shard 0 of `spec` under `dir`.
std::map<std::int64_t, int> UnresolvedIntents(const fs::path& dir,
                                              const CampaignSpec& spec) {
  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     spec.Fingerprint());
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  return loaded.ok() ? loaded->unresolved_intents
                     : std::map<std::int64_t, int>{};
}

TEST(CampaignTest, StopAfterOneWalksToCompletionLeavingNoIntent) {
  const fs::path dir = TestDir("stop_walk");
  const std::string ckpt = Campaign::ShardPath(dir.string(), 0);
  // First a SIGINT stand-in: job 2 hangs until cancelled, and the stop
  // flag is raised once its intent is on disk, so the stop certainly
  // abandons a job in flight.
  std::atomic<bool> stop{false};
  CampaignOptions first = DirOptions(dir, /*jobs=*/4);
  first.hooks.hang_job = 2;
  first.stop = &stop;
  StatusOr<CampaignReport> stopped = Status::Internal("not run");
  std::thread run([&] { stopped = Campaign(SmallSpec(), first).Run(); });
  while (!fs::exists(ckpt) ||
         MustRead(ckpt).find("\n{\"intent\":2}\n") == std::string::npos) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  run.join();
  ASSERT_TRUE(stopped.ok()) << stopped.status().ToString();
  EXPECT_TRUE(stopped->stopped);
  EXPECT_NE(MustRead(ckpt).find("\n{\"cancel\":2}\n"), std::string::npos)
      << "the hung job was not cancelled in flight";
  EXPECT_TRUE(UnresolvedIntents(dir, SmallSpec()).empty())
      << "a cancelled job must resolve its intent";

  // Then --stop-after=1 at four executors per invocation until the grid
  // is done. No graceful stop may leave an intent behind, or a later
  // invocation would run that job alone and, stopped again, quarantine
  // it as a crash.
  for (int invocation = 1; invocation <= 24; ++invocation) {
    CampaignOptions options = DirOptions(dir, /*jobs=*/4);
    options.hooks.stop_after = 1;
    const auto report = Campaign(SmallSpec(), options).Run();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(UnresolvedIntents(dir, SmallSpec()).empty())
        << "invocation " << invocation;
    if (report->merged) break;
  }
  EXPECT_FALSE(fs::exists(dir / "quarantine"));
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"), ReferenceBench());
}

TEST(CampaignTest, SeededKillsCostReRunsNeverResults) {
  // 32 jobs of a few milliseconds each: long enough to be killed mid-run.
  CampaignSpec spec = SmallSpec();
  spec.scenarios = 8;
  spec.horizon = 100000;
  const fs::path twin = TestDir("kills_twin");
  const auto undisturbed = Campaign(spec, DirOptions(twin)).Run();
  ASSERT_TRUE(undisturbed.ok()) << undisturbed.status().ToString();
  ASSERT_TRUE(undisturbed->merged);

  const fs::path dir = TestDir("kills");
  const std::string ckpt = Campaign::ShardPath(dir.string(), 0);
  const auto recorded = [&](std::int64_t* records,
                            std::map<std::int64_t, int>* intents) {
    const auto loaded = LoadCheckpoint(ckpt, spec.Fingerprint());
    if (!loaded.ok()) return;
    *records = static_cast<std::int64_t>(loaded->records.size());
    *intents = loaded->unresolved_intents;
  };
  Rng rng(20261020);
  int kills = 0;
  bool complete = false;
  for (int run = 0; run < 8 && !complete; ++run) {
    // The previous kill's suspects: they run first, one at a time.
    std::int64_t base = 0;
    std::map<std::int64_t, int> suspects;
    recorded(&base, &suspects);
    for (const auto& [job, count] : suspects) {
      ASSERT_EQ(count, 1) << "job " << job << " was killed twice";
    }
    const ::pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const auto report = Campaign(spec, DirOptions(dir)).Run();
      ::_exit(report.ok() && report->merged ? 0 : 1);
    }
    if (kills < 3) {
      // Kill once every suspect is recorded and a seeded number of
      // further records landed, unless the run finishes first.
      const std::int64_t target = base +
                                  static_cast<std::int64_t>(suspects.size()) +
                                  rng.UniformInt(1, 4);
      for (;;) {
        if (::waitpid(pid, nullptr, WNOHANG) != 0) break;
        std::int64_t records = 0;
        std::map<std::int64_t, int> intents;
        recorded(&records, &intents);
        bool suspects_done = true;
        for (const auto& [job, count] : suspects) {
          suspects_done = suspects_done && intents.count(job) == 0;
        }
        if (suspects_done && records >= target) {
          ::kill(pid, SIGKILL);
          ++kills;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    complete = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
  ASSERT_TRUE(complete);
  EXPECT_GE(kills, 1) << "no kill landed before the campaign finished";
  EXPECT_FALSE(fs::exists(dir / "quarantine"))
      << "a kill that lands once per job must quarantine nothing";
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"),
            MustRead(twin / "BENCH_campaign.json"))
      << "kills may cost re-runs, never a byte of the merged result";
  EXPECT_EQ(MustRead(dir / "MANIFEST.json"), MustRead(twin / "MANIFEST.json"));
}

// --- bytes pinned by files in tests/golden/campaign/ ----------------------

#ifdef PCPDA_SOURCE_DIR

const fs::path kGoldenDir = fs::path(PCPDA_SOURCE_DIR) / "tests/golden/campaign";

/// The grid of campaign_smoke.sh's phase a: 16 jobs over 2 shards, job 3
/// throws on every attempt and job 7 hangs until the watchdog cancels it.
TEST(CampaignTest, QuarantineGridMatchesGoldens) {
  const fs::path dir = TestDir("golden_grid");
  CampaignSpec spec;
  CampaignOptions options;
  for (const char* flag :
       {"--scenarios=4", "--utils=0.3,0.6", "--protocols=PCP-DA,PCP",
        "--shards=2", "--horizon=400", "--jobs=4", "--retries=1",
        "--wall-budget-ms=500", "--inject-crash=3", "--inject-hang=7"}) {
    ASSERT_TRUE(ApplyCampaignFlag(flag, &spec, &options).ok()) << flag;
  }
  options.out_dir = dir.string();
  options.fsync = false;
  Campaign campaign(spec, options);
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->quarantined, 2);
  EXPECT_EQ(MustRead(dir / "BENCH_campaign.json"),
            MustRead(kGoldenDir / "BENCH_campaign.json"));
  EXPECT_EQ(MustRead(dir / "MANIFEST.json"),
            MustRead(kGoldenDir / "MANIFEST.json"));
  for (const char* name : {"job_000003.json", "job_000007.json"}) {
    EXPECT_EQ(MustRead(dir / "quarantine" / name),
              MustRead(kGoldenDir / name))
        << name;
  }
}

/// A version-2 shard checkpoint as an earlier build wrote it for a
/// 2-job grid: an intent and a record for job 0, whose message holds a
/// quote, a backslash, a newline and a control byte, then an intent and
/// a cancel for job 1.
TEST(CheckpointTest, CommittedVersionTwoCheckpointLoadsAndResumes) {
  const std::string fixture = MustRead(kGoldenDir / "v2_checkpoint.ckpt");
  const CampaignSpec spec =
      SpecOf({"--seed=7", "--scenarios=1", "--utils=0.3", "--horizon=300",
              "--protocols=PCP-DA,PCP", "--txns=4", "--items=8"});
  const fs::path dir = TestDir("v2_fixture");
  const std::string path = Campaign::ShardPath(dir.string(), 0);
  std::ofstream(path, std::ios::binary) << fixture;

  const auto loaded = LoadCheckpoint(path, spec.Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->valid_bytes, static_cast<std::int64_t>(fixture.size()));
  EXPECT_EQ(loaded->torn_bytes, 0);
  EXPECT_TRUE(loaded->unresolved_intents.empty());
  ASSERT_EQ(loaded->records.size(), 1u);
  const JobRecord& record = loaded->records[0];
  EXPECT_EQ(record.job_id, 0);
  EXPECT_EQ(record.outcome, "failed");
  EXPECT_EQ(record.code, "Internal");
  EXPECT_EQ(record.attempts, 2);
  EXPECT_EQ(record.message,
            "quote \" backslash \\ newline\nbell \x07 end");
  // Today's encoder writes the same bytes for the same record.
  EXPECT_NE(fixture.find("\n" + EncodeJobRecord(record) + "\n"),
            std::string::npos);

  Campaign campaign(spec, DirOptions(dir, /*jobs=*/1));
  const auto report = campaign.Run();
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->shards.size(), 1u);
  EXPECT_EQ(report->shards[0].resumed, 1);
  EXPECT_EQ(report->shards[0].ran, 1);
  EXPECT_EQ(report->quarantined, 1);
  EXPECT_EQ(report->ok, 1);
  EXPECT_TRUE(report->merged);
  // Resume only appends, and job 1's new intent line has the bytes of
  // the fixture's.
  const std::string resumed = MustRead(path);
  ASSERT_EQ(resumed.compare(0, fixture.size(), fixture), 0);
  const std::string intent_1 = "{\"intent\":1}\n";
  EXPECT_NE(fixture.find("\n" + intent_1), std::string::npos);
  EXPECT_EQ(resumed.substr(fixture.size(), intent_1.size()), intent_1);
}

#endif  // PCPDA_SOURCE_DIR

// --- pcpda_campaign --supervise (spawns the built binary) ------------------

#ifdef PCPDA_BINARY_DIR

/// How a spawned pcpda_campaign ended.
struct CliExit {
  bool timed_out = false;
  int code = -1;  // exit code, -1 after a death by signal or a timeout
};

/// Runs pcpda_campaign with `flags` in its own process group, stdout and
/// stderr to `log` (truncated first). ASan and TSan turn an injected
/// SIGSEGV into a report and an exit code by default, so the run keeps
/// the signal (handle_segv=0; a no-op without a sanitizer).
/// `fsize_limit` > 0 caps the files it may write (RLIMIT_FSIZE, SIGXFSZ
/// at its default action). Past `timeout` the whole group is killed and
/// the run reports timed_out: a mutated restart loop must fail the test,
/// not hang it.
CliExit RunCampaignCli(const std::vector<std::string>& flags,
                       const fs::path& log, std::int64_t fsize_limit = 0,
                       std::chrono::seconds timeout =
                           std::chrono::seconds(120)) {
  std::vector<std::string> args = {PCPDA_BINARY_DIR
                                   "/examples/pcpda_campaign"};
  args.insert(args.end(), flags.begin(), flags.end());
  std::vector<std::string> env;
  for (char** var = environ; *var != nullptr; ++var) {
    const std::string entry = *var;
    if (entry.rfind("ASAN_OPTIONS=", 0) != 0 &&
        entry.rfind("TSAN_OPTIONS=", 0) != 0) {
      env.push_back(entry);
    }
  }
  for (const char* name : {"ASAN_OPTIONS", "TSAN_OPTIONS"}) {
    const char* value = std::getenv(name);
    env.push_back(std::string(name) + "=" +
                  (value != nullptr && *value != '\0'
                       ? std::string(value) + ":"
                       : std::string()) +
                  "handle_segv=0");
  }
  std::vector<char*> argv, envp;
  for (std::string& arg : args) argv.push_back(arg.data());
  for (std::string& var : env) envp.push_back(var.data());
  argv.push_back(nullptr);
  envp.push_back(nullptr);
  const int log_fd =
      ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);

  const ::pid_t pid = ::fork();
  if (pid == 0) {
    ::setpgid(0, 0);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::signal(SIGXFSZ, SIG_DFL);
    const struct rlimit no_core = {0, 0};
    ::setrlimit(RLIMIT_CORE, &no_core);
    if (fsize_limit > 0) {
      const struct rlimit limit = {static_cast<rlim_t>(fsize_limit),
                                   static_cast<rlim_t>(fsize_limit)};
      ::setrlimit(RLIMIT_FSIZE, &limit);
    }
    ::execve(argv[0], argv.data(), envp.data());
    ::_exit(127);
  }
  ::close(log_fd);
  CliExit result;
  if (pid < 0) return result;
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  while (::waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(-pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      result.timed_out = true;
      return result;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (WIFEXITED(status)) result.code = WEXITSTATUS(status);
  return result;
}

std::vector<std::string> Flags(std::vector<std::string> base,
                               const std::vector<std::string>& more) {
  base.insert(base.end(), more.begin(), more.end());
  return base;
}

/// Checks that exactly `job` of shard 0 is quarantined, as a crash, and
/// that every other job recorded ok.
void ExpectOnlyCrashQuarantined(const fs::path& dir,
                                const CampaignSpec& spec,
                                std::int64_t job) {
  const auto loaded = LoadCheckpoint(Campaign::ShardPath(dir.string(), 0),
                                     spec.Fingerprint());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->records.size(),
            static_cast<std::size_t>(spec.num_jobs()));
  for (const JobRecord& record : loaded->records) {
    if (record.job_id == job) {
      EXPECT_EQ(record.outcome, "crash");
      EXPECT_EQ(record.attempts, 2);
      EXPECT_EQ(record.code, "Internal");
    } else {
      EXPECT_EQ(record.outcome, "ok") << "job " << record.job_id;
    }
  }
  std::set<std::string> quarantined;
  for (const auto& entry : fs::directory_iterator(dir / "quarantine")) {
    quarantined.insert(entry.path().filename().string());
  }
  const std::string stem =
      StrFormat("job_%06lld", static_cast<long long>(job));
  EXPECT_EQ(quarantined,
            (std::set<std::string>{stem + ".json", stem + ".scn"}));
  const std::string manifest = MustRead(dir / "MANIFEST.json");
  EXPECT_NE(manifest.find("\"quarantined\": 1,"), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"pending\": 0,"), std::string::npos) << manifest;
}

/// 4 cells x 2 protocols = 8 jobs in one shard, each about 10 ms long,
/// so co-runners are mid-run when a poison job kills the process.
const std::vector<std::string> kPoisonGrid = {
    "--seed=3", "--scenarios=4", "--utils=0.4", "--protocols=PCP-DA,2PL-HP",
    "--horizon=200000", "--no-fsync"};

TEST(SupervisorTest, PoisonJobIsQuarantinedAloneAtOneJob) {
  const fs::path dir = TestDir("poison_serial");
  const CliExit exit = RunCampaignCli(
      Flags(kPoisonGrid, {"--out=" + dir.string(), "--jobs=1",
                          "--supervise", "--inject-crash-job=1"}),
      dir.string() + ".log", 0, std::chrono::seconds(60));
  ASSERT_FALSE(exit.timed_out) << MustRead(dir.string() + ".log");
  EXPECT_EQ(exit.code, 1) << MustRead(dir.string() + ".log");
  ExpectOnlyCrashQuarantined(dir, SpecOf(kPoisonGrid), 1);
}

TEST(SupervisorTest, PoisonJobIsQuarantinedAloneAtFourJobs) {
  // Job 6 starts after job 7 on the last executor, with jobs of the
  // other three executors in flight. Each such co-runner leaves an
  // intent when the process dies; were suspects re-run together, it
  // would die with job 6 again and be quarantined too.
  const fs::path dir = TestDir("poison_parallel");
  const CliExit exit = RunCampaignCli(
      Flags(kPoisonGrid, {"--out=" + dir.string(), "--jobs=4",
                          "--supervise", "--inject-crash-job=6"}),
      dir.string() + ".log", 0, std::chrono::seconds(60));
  ASSERT_FALSE(exit.timed_out) << MustRead(dir.string() + ".log");
  EXPECT_EQ(exit.code, 1) << MustRead(dir.string() + ".log");
  ExpectOnlyCrashQuarantined(dir, SpecOf(kPoisonGrid), 6);
}

TEST(SupervisorTest, SpinningJobEndsItsProcessAndIsQuarantinedAsCrash) {
  // The spin ignores its cancel; one wall budget later the watchdog
  // kills the process, twice, and the third run records the crash.
  const fs::path dir = TestDir("spin");
  const CliExit exit = RunCampaignCli(
      Flags(kSmallSpecFlags,
            {"--out=" + dir.string(), "--no-fsync", "--jobs=1",
             "--supervise", "--inject-spin-job=2", "--wall-budget-ms=200"}),
      dir.string() + ".log", 0, std::chrono::seconds(60));
  ASSERT_FALSE(exit.timed_out)
      << "a job that ignores its cancel must end its process";
  EXPECT_EQ(exit.code, 1) << MustRead(dir.string() + ".log");
  ExpectOnlyCrashQuarantined(dir, SmallSpec(), 2);
}

TEST(SupervisorTest, SignalDeathWithoutCheckpointGrowthStopsWithExit2) {
  const fs::path dir = TestDir("no_growth");
  const std::vector<std::string> flags = Flags(
      kSmallSpecFlags, {"--out=" + dir.string(), "--no-fsync", "--jobs=1"});
  const CliExit partial = RunCampaignCli(Flags(flags, {"--stop-after=2"}),
                                         dir.string() + ".log");
  ASSERT_EQ(partial.code, 1) << MustRead(dir.string() + ".log");
  const std::string ckpt = Campaign::ShardPath(dir.string(), 0);
  const auto size = static_cast<std::int64_t>(fs::file_size(ckpt));

  // The checkpoint may not grow: the next job's intent raises SIGXFSZ, a
  // death by signal that wrote nothing. Restarting could only repeat it.
  // The output goes to /dev/null, which the file-size limit leaves alone.
  const CliExit stuck =
      RunCampaignCli(Flags(flags, {"--supervise"}), "/dev/null",
                     /*fsize_limit=*/size, std::chrono::seconds(60));
  ASSERT_FALSE(stuck.timed_out) << "the restart loop must give up";
  EXPECT_EQ(stuck.code, 2);
  EXPECT_EQ(static_cast<std::int64_t>(fs::file_size(ckpt)), size);
}

/// Runs SmallSpec() in process and under --supervise with the same
/// lint-defect hook (-1: none) and checks that both merge the same
/// BENCH_campaign.json and MANIFEST.json. Returns the supervised BENCH.
/// `name` keeps the directories of concurrently run cases apart.
std::string ExpectSupervisedMatchesInProcess(const std::string& name,
                                             std::int64_t defect_cell) {
  const fs::path in_process = TestDir(name + "_ref");
  CampaignOptions options = DirOptions(in_process);
  options.hooks.lint_defect_cell = defect_cell;
  const auto report = Campaign(SmallSpec(), options).Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();

  const fs::path dir = TestDir(name);
  const CliExit exit = RunCampaignCli(
      Flags(kSmallSpecFlags,
            {"--out=" + dir.string(), "--no-fsync", "--jobs=2", "--supervise",
             StrFormat("--inject-lint-defect-cell=%lld",
                       static_cast<long long>(defect_cell))}),
      dir.string() + ".log");
  EXPECT_EQ(exit.code, defect_cell < 0 ? 0 : 1)
      << MustRead(dir.string() + ".log");
  const std::string bench = MustRead(dir / "BENCH_campaign.json");
  EXPECT_EQ(bench, MustRead(in_process / "BENCH_campaign.json"));
  EXPECT_EQ(MustRead(dir / "MANIFEST.json"),
            MustRead(in_process / "MANIFEST.json"));
  return bench;
}

TEST(SupervisorTest, SupervisedRunMergesByteIdenticallyToInProcess) {
  EXPECT_EQ(ExpectSupervisedMatchesInProcess("supervise", -1),
            ReferenceBench());
}

TEST(SupervisorTest, WorkersRunTheTestHooksOfTheirCommand) {
  // The lint-defect hook quarantines cell 2's jobs 4 and 5, so the merge
  // differs from the reference; the supervised merge matches the
  // in-process one only if the child runs the hooks of the command line.
  EXPECT_NE(ExpectSupervisedMatchesInProcess("supervise_hooks", 2),
            ReferenceBench());
}

#endif  // PCPDA_BINARY_DIR

}  // namespace
}  // namespace pcpda
