// Tests for the crash-safe campaign engine (src/campaign/): grid
// indexing and shard partitioning, the checkpoint record codec and its
// torn-tail handling, the group-commit writer, a failing checkpoint write,
// fingerprint guarding, and end-to-end campaigns —
// byte-identical merges across shard layouts, resume after a torn
// checkpoint, quarantine of crashing/hanging jobs, and graceful stop
// with partial results.

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
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

/// A 3-scenario x 2-util x 2-protocol grid (12 jobs) that runs in well
/// under a second — small enough for end-to-end campaigns in unit tests.
CampaignSpec SmallSpec() {
  CampaignSpec spec;
  spec.base_seed = 7;
  spec.scenarios = 3;
  spec.utilizations = {0.3, 0.6};
  spec.protocols = {ProtocolKind::kPcpDa, ProtocolKind::kOpcp};
  spec.horizon = 300;
  spec.max_retries = 1;
  spec.workload.num_transactions = 4;
  spec.workload.num_items = 8;
  return spec;
}

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

TEST(CampaignSpecTest, JobsForRangeClipsTheShardToTheRange) {
  CampaignSpec spec = SmallSpec();
  spec.shards = 2;  // shard 1 holds job ids 6..11
  std::vector<std::int64_t> ids;
  for (const CampaignJob& job : spec.JobsForRange(1, 4, 9)) {
    ids.push_back(job.id);
  }
  EXPECT_EQ(ids, (std::vector<std::int64_t>{6, 7, 8}));
  EXPECT_EQ(spec.JobsForRange(1, -1, -1).size(), 6u);
  EXPECT_EQ(spec.JobsForRange(1, 8, -1).size(), 4u);
  EXPECT_TRUE(spec.JobsForRange(0, 9, 12).empty());
}

// --- ApplyCampaignFlag -------------------------------------------------------

Status Apply(const std::string& arg, CampaignSpec* spec) {
  CampaignOptions options;
  return ApplyCampaignFlag(arg, spec, &options);
}

TEST(CampaignFlagsTest, PrintedDoublesParseBitExactly) {
  // No short decimal form: printed at %.17g they must come back exactly,
  // or a worker's fingerprint would differ from its supervisor's.
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
        "--no-fsync", "--no-lint-preflight", "--job-first=2",
        "--job-last=9", "--inject-crash=10", "--inject-hang=11",
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
  EXPECT_EQ(options.job_first, 2);
  EXPECT_EQ(options.job_last, 9);
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
      {"--job-first", {"x", "-2"}},
      {"--job-last", {"x", "-2"}},
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
  for (const char* flag :
       {"--nope=1", "--seeds=1", "seed=1", "--supervise", "--workers=2"}) {
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

/// Byte length of the header plus the first `records` record lines of
/// the checkpoint a serial single-shard run of SmallSpec() writes.
std::int64_t SerialCheckpointPrefix(int records) {
  const fs::path dir =
      TestDir("serial_prefix_" + std::to_string(::getpid()));
  Campaign campaign(SmallSpec(), DirOptions(dir, /*jobs=*/1));
  const auto report = campaign.Run();
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  const std::string text = MustRead(Campaign::ShardPath(dir.string(), 0));
  std::size_t end = 0;
  for (int line = 0; line <= records; ++line) {
    end = text.find('\n', end);
    if (end == std::string::npos) return -1;
    ++end;
  }
  return static_cast<std::int64_t>(end);
}

TEST(CampaignTest, AppendFailureAbortsCleanlyAndResumesByteIdentically) {
  const std::int64_t limit = SerialCheckpointPrefix(5);
  ASSERT_GT(limit, 0);
  const fs::path dir = TestDir("append_failure");
  // Serial worker under a file-size limit that ends exactly after the
  // 5th record: the 6th append's write(2) fails with EFBIG (SIGXFSZ
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

}  // namespace
}  // namespace pcpda
