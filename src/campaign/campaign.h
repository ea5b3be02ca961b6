#ifndef PCPDA_CAMPAIGN_CAMPAIGN_H_
#define PCPDA_CAMPAIGN_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/spec.h"
#include "common/status.h"
#include "plan/compiled_plan.h"
#include "runner/batch_runner.h"
#include "runner/executor_pool.h"

namespace pcpda {

/// How a campaign invocation executes its grid; nothing in here affects
/// job results (that is CampaignSpec's job), so checkpoints written under
/// different options merge byte-identically.
struct CampaignOptions {
  /// Directory for checkpoints, quarantine records, MANIFEST.json and
  /// BENCH_campaign.json. Created if missing.
  std::string out_dir;
  /// Concurrent executors per shard.
  int jobs = 1;
  /// Make checkpoint records durable against a machine crash: the
  /// writer's committer thread group-fsyncs the appended lines. A
  /// process kill loses no appended record either way. Tests that only exercise
  /// logic may turn it off for speed.
  bool fsync = true;
  /// Run only this shard (distributed invocations run one shard each);
  /// -1 runs every shard in sequence. Accounting, the manifest and the
  /// final merge always cover all shards.
  int only_shard = -1;
  /// Graceful-stop flag, typically set by a SIGINT/SIGTERM handler:
  /// in-flight jobs are cancelled, nothing new starts, the checkpoint
  /// writer drains its last fsync on close, and a partial MANIFEST.json
  /// is written.
  const std::atomic<bool>* stop = nullptr;

  /// Lint pre-flight (ROADMAP item 3): run the static analyzer's
  /// error-level filter over every generated scenario before any
  /// protocol simulates it. A scenario with lint errors marks all of its
  /// cell's jobs "generator_defect" — quarantined with the .scn as a
  /// generator bug, never counted as a protocol failure.
  bool lint_preflight = true;

  /// Deterministic faults for the robustness tests; the defaults (-1)
  /// turn every hook off. The segv and spin hooks kill the process by
  /// design: only resume's intent records can contain them.
  struct TestHooks {
    /// This job throws on every attempt (exhausts retries, quarantined).
    std::int64_t throw_job = -1;
    /// This job sleeps until the watchdog cancels it (quarantined).
    std::int64_t hang_job = -1;
    /// This job raises SIGSEGV, killing the whole process when it starts:
    /// the poison-job case, which no retry can catch.
    std::int64_t segv_job = -1;
    /// This job spins without polling cancellation: a hang that only the
    /// watchdog's process kill, one wall budget after the cancel, ends.
    std::int64_t spin_job = -1;
    /// This cell's scenario gets a dangling `expect` reference, which the
    /// lint pre-flight rejects as a generator defect.
    std::int64_t lint_defect_cell = -1;
    /// After this many completions, trip an internal stop flag: a
    /// deterministic SIGINT mid-shard. The runner watches it alongside
    /// `stop`, so in-flight jobs are cancelled and nothing new starts.
    std::int64_t stop_after = -1;
  };
  TestHooks hooks = {};
};

/// Applies one pcpda_campaign flag ("--name=value", or "--name" for a
/// switch) to `spec` or `options`. Every flag that sets a CampaignSpec or
/// CampaignOptions field is parsed here, from one table. NotFound for a
/// flag not in the table; InvalidArgument, naming the flag, for a
/// malformed or out-of-range value.
Status ApplyCampaignFlag(const std::string& arg, CampaignSpec* spec,
                         CampaignOptions* options);

/// Per-shard accounting for one invocation.
struct ShardSummary {
  int shard = 0;
  std::int64_t jobs = 0;
  /// Records reused from the checkpoint instead of re-running.
  std::int64_t resumed = 0;
  /// Jobs recorded by this invocation: the ones it executed, plus poison
  /// jobs recorded from their intents without running.
  std::int64_t ran = 0;
  /// Torn-tail bytes discarded when the checkpoint was loaded.
  std::int64_t torn_bytes = 0;
};

/// Result of one campaign invocation. ok/failed/quarantined/pending
/// account for every job of every shard (resumed or not):
/// ok + failed + quarantined + pending == total_jobs, always.
struct CampaignReport {
  std::vector<ShardSummary> shards;
  std::int64_t total_jobs = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t quarantined = 0;
  std::int64_t pending = 0;
  /// True when a stop request interrupted this invocation.
  bool stopped = false;
  /// Every job recorded; BENCH_campaign.json was written.
  bool merged = false;
  std::string manifest_path;
  std::string bench_path;
};

/// The crash-safe campaign engine. One invocation = load checkpoints,
/// run what is missing (under the spec's robustness policy), append each
/// completion (group-fsynced off the worker path), then merge if the grid
/// is complete. Killing the process at any point and re-invoking resumes
/// exactly where the last appended record left off and produces a
/// BENCH_campaign.json byte-identical to an uninterrupted run
/// (tests/campaign_test.cc and the campaign-smoke ctest prove both).
///
/// Every job's first attempt is preceded by an intent line, so a job
/// that kills the process is named by the next invocation: resume records
/// a job with two unresolved intents as a poison "crash", runs the jobs
/// with one alone, then the rest (DESIGN.md §14).
class Campaign {
 public:
  Campaign(CampaignSpec spec, CampaignOptions options);

  /// Runs (or resumes) the campaign. Non-OK only for spec/IO errors;
  /// job failures are data, reported in the CampaignReport and the
  /// checkpoint records.
  StatusOr<CampaignReport> Run();

  /// Merge-only entry: re-reads every shard checkpoint and writes
  /// MANIFEST.json (and BENCH_campaign.json when complete) without
  /// running a single job. `stopped` is recorded in the manifest.
  StatusOr<CampaignReport> Merge(bool stopped);

  /// The checkpoint path of `shard` under `out_dir`.
  static std::string ShardPath(const std::string& out_dir, int shard);

 private:
  /// Executes the missing jobs of one shard in resume order (poison
  /// records, then suspects one at a time, then the rest on `runner`),
  /// appending each completion to the shard checkpoint, and fills the
  /// summary.
  Status RunShard(BatchRunner& runner, int shard, ShardSummary& summary);
  /// Runs `jobs` on `runner` under the spec's policy: an intent line
  /// before each job's first attempt, a record after its last, a cancel
  /// line for each job a stop abandoned in flight.
  Status RunJobs(BatchRunner& runner, const std::vector<CampaignJob>& jobs,
                 CheckpointWriter& writer, ShardSummary& summary);
  /// Records `job`, which two campaign processes died running, as outcome
  /// "crash" and quarantines it.
  Status RecordPoisonJob(CheckpointWriter& writer, const CampaignJob& job);
  /// Executes one job attempt (or an injected fault).
  SimResult RunJob(const CampaignJob& job, const JobContext& context);
  /// Converts a finished JobResult into its checkpoint record.
  JobRecord MakeRecord(const CampaignJob& job,
                       const JobResult& result) const;
  /// Writes quarantine/job_<id>.scn (the offending workload, replayable
  /// by run_scenario and usable as a fuzzer seed) and .json (the failure
  /// record).
  Status WriteQuarantine(const CampaignJob& job, const JobRecord& record);
  /// Re-reads every shard checkpoint, fills global accounting, writes
  /// MANIFEST.json and — when complete — BENCH_campaign.json. `pool`
  /// runs the merge's analytic pass.
  Status Finalize(CampaignReport& report, ExecutorPool& pool);
  /// Renders the merged benchmark report of a complete `report`
  /// (deterministic byte-for-byte: records sorted by job id, fixed key
  /// order, no timestamps, the same bytes for any `pool` size).
  std::string RenderBench(const CampaignReport& report,
                          const std::vector<JobRecord>& records,
                          ExecutorPool& pool) const;
  bool StopRequested() const;

  /// The 8 protocol jobs of a grid cell share one scenario seed, so they
  /// share one generated-and-compiled workload too. The first job of a
  /// cell to arrive compiles (under the cell's once_flag); the rest wait
  /// on the flag and reuse the plan. Bounded FIFO eviction keeps memory
  /// flat on huge grids — an evicted cell is simply recompiled.
  struct CellPlan {
    std::once_flag once;
    StatusOr<CompiledPlan> plan{CompiledPlan{}};
  };
  std::shared_ptr<CellPlan> CellPlanFor(std::int64_t cell);
  /// Generates and compiles the workload of `job`'s cell (no caching).
  StatusOr<CompiledPlan> CompileCell(const CampaignJob& job) const;

  const CampaignSpec spec_;
  const CampaignOptions options_;
  const std::string fingerprint_;
  /// hooks.stop_after's deterministic stop flag (see CampaignOptions).
  std::atomic<bool> internal_stop_{false};
  std::atomic<std::int64_t> completions_{0};
  /// Cell-plan cache (see CellPlanFor); guarded by plans_mu_.
  std::mutex plans_mu_;
  std::map<std::int64_t, std::shared_ptr<CellPlan>> plans_;
  std::list<std::int64_t> plan_order_;  // FIFO eviction order
};

}  // namespace pcpda

#endif  // PCPDA_CAMPAIGN_CAMPAIGN_H_
