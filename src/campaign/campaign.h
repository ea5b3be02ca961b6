#ifndef PCPDA_CAMPAIGN_CAMPAIGN_H_
#define PCPDA_CAMPAIGN_CAMPAIGN_H_

#include <atomic>
#include <cstdint>
#include <functional>
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
  /// writer's committer thread group-fsyncs the appended lines, and
  /// on_record waits for the fsync that covers its record. A process
  /// kill loses no appended record either way. Tests that only exercise
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

  // --- worker mode (the supervisor's forked processes) -----------------
  /// Run as a supervised worker: execute the assigned shard (only_shard
  /// is then required) and skip Finalize entirely — the supervisor owns
  /// MANIFEST/BENCH, and parallel workers must not race on them.
  bool worker = false;
  /// Restrict the shard to global job ids in [job_first, job_last) — the
  /// supervisor's bisection unit when hunting a poison job. -1/-1 runs
  /// the whole shard. Already-recorded jobs inside the range still
  /// resume; jobs outside it are left pending for sibling workers.
  std::int64_t job_first = -1;
  std::int64_t job_last = -1;
  /// Invoked once per record after the fsync that covers it has returned
  /// (on the checkpoint writer's committer thread; with fsync off, on the
  /// worker thread that completed the job, right after its append).
  /// Workers write one heartbeat byte per call; the supervisor's stall
  /// detector feeds on them. Must be async-safe in the ordinary sense
  /// (called under no campaign lock) and cheap.
  std::function<void()> on_record;

  /// Lint pre-flight (ROADMAP item 3): run the static analyzer's
  /// error-level filter over every generated scenario before any
  /// protocol simulates it. A scenario with lint errors marks all of its
  /// cell's jobs "generator_defect" — quarantined with the .scn as a
  /// generator bug, never counted as a protocol failure.
  bool lint_preflight = true;

  // --- fault injection for the robustness tests ------------------------
  /// This job id throws on every attempt (exhausts retries, quarantined).
  std::int64_t inject_crash_job = -1;
  /// This job id spins until cancelled (trips the watchdog, quarantined).
  std::int64_t inject_hang_job = -1;
  /// Trip an internal stop flag after this many completions — a
  /// deterministic stand-in for SIGINT mid-shard. The runner watches that
  /// flag alongside `stop`, so in-flight jobs are cancelled and nothing
  /// new starts as soon as it trips. -1 = off.
  std::int64_t stop_after = -1;
  /// This job id kills the whole *process* with SIGSEGV when it starts —
  /// the supervisor-level poison-job injection (a thrown exception never
  /// leaves the worker; this one cannot be caught). Lethal by design in
  /// unsupervised runs.
  std::int64_t inject_segv_job = -1;
  /// This job id spins forever without polling cancellation — a hang no
  /// in-process watchdog can break; only the supervisor's SIGTERM→SIGKILL
  /// escalation ends it. Lethal by design in unsupervised runs.
  std::int64_t inject_spin_job = -1;
  /// Inject a lint defect into this cell's generated scenario (a
  /// dangling `expect` reference), driving the lint pre-flight's
  /// generator_defect path deterministically in tests. -1 = off.
  std::int64_t inject_lint_defect_cell = -1;
};

/// Per-shard accounting for one invocation.
struct ShardSummary {
  int shard = 0;
  std::int64_t jobs = 0;
  /// Records reused from the checkpoint instead of re-running.
  std::int64_t resumed = 0;
  /// Jobs actually executed (and recorded) by this invocation.
  std::int64_t ran = 0;
  /// Torn-tail bytes discarded when the checkpoint was loaded.
  std::int64_t torn_bytes = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t quarantined = 0;
  /// Jobs still unrecorded (stop fired, or the shard was not selected).
  std::int64_t pending = 0;
};

/// Result of one campaign invocation. ok/failed/quarantined/pending
/// account for every job of every shard (resumed or not):
/// ok + failed + quarantined + pending == total_jobs, always.
struct CampaignReport {
  std::string fingerprint;
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
class Campaign {
 public:
  Campaign(CampaignSpec spec, CampaignOptions options);

  /// Runs (or resumes) the campaign. Non-OK only for spec/IO errors;
  /// job failures are data, reported in the CampaignReport and the
  /// checkpoint records. In worker mode Finalize is skipped: the report
  /// carries shard summaries only (total/ok/... stay zero).
  StatusOr<CampaignReport> Run();

  /// Merge-only entry for the supervisor: re-reads every shard
  /// checkpoint and writes MANIFEST.json (and BENCH_campaign.json when
  /// complete) without running a single job. `stopped` is recorded in
  /// the manifest. Must not run concurrently with live workers.
  StatusOr<CampaignReport> Merge(bool stopped);

  /// Records a job the supervisor proved poisonous (its worker process
  /// died on it repeatedly; bisection isolated it): appends `record` to
  /// the owning shard's checkpoint — unless the id is already recorded —
  /// and writes the quarantine .json/.scn pair. Must not run while a
  /// worker owns that shard's checkpoint.
  Status RecordPoisonJob(const JobRecord& record);

  /// The checkpoint path of `shard` under `out_dir`.
  static std::string ShardPath(const std::string& out_dir, int shard);

 private:
  /// Executes the missing jobs of one shard, appending each completion
  /// to the shard checkpoint. Fills the summary's resumed/ran/torn
  /// counters; ok/failed/etc. are recomputed globally by Finalize.
  Status RunShard(BatchRunner& runner, int shard, ShardSummary& summary);
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
  /// Renders the merged benchmark report (deterministic byte-for-byte:
  /// records sorted by job id, fixed key order, no timestamps, the same
  /// bytes for any `pool` size).
  std::string RenderBench(const std::vector<JobRecord>& records,
                          ExecutorPool& pool) const;
  std::string RenderManifest(
      const CampaignReport& report,
      const std::vector<std::int64_t>& recorded_per_shard) const;
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
  /// stop_after's deterministic stop flag (see CampaignOptions).
  std::atomic<bool> internal_stop_{false};
  std::atomic<std::int64_t> completions_{0};
  /// Cell-plan cache (see CellPlanFor); guarded by plans_mu_.
  std::mutex plans_mu_;
  std::map<std::int64_t, std::shared_ptr<CellPlan>> plans_;
  std::list<std::int64_t> plan_order_;  // FIFO eviction order
};

}  // namespace pcpda

#endif  // PCPDA_CAMPAIGN_CAMPAIGN_H_
