#include "campaign/campaign.h"

#include <chrono>
#include <csignal>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "common/json.h"
#include "common/strings.h"
#include "lint/lint.h"
#include "sched/simulator.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

/// Sum of the paper's effective-blocking metric over all specs.
std::int64_t TotalBlocking(const RunMetrics& metrics) {
  Tick blocking = 0;
  for (const SpecMetrics& spec : metrics.per_spec) {
    blocking += spec.effective_blocking_ticks;
  }
  return static_cast<std::int64_t>(blocking);
}

/// Status-message prefix that classifies a cell failure as a defect of
/// the workload generator (lint pre-flight rejection or generation
/// failure) rather than of the protocol under test. MakeRecord keys the
/// "generator_defect" outcome off it.
constexpr const char kGeneratorDefectPrefix[] = "generator defect: ";

bool IsGeneratorDefect(const Status& status) {
  return status.code() == StatusCode::kFailedPrecondition &&
         status.message().rfind(kGeneratorDefectPrefix, 0) == 0;
}

/// One row of MANIFEST.json's shard table.
struct ShardRow {
  std::int64_t jobs = 0;
  std::int64_t recorded = 0;
};

/// The members MANIFEST.json and BENCH_campaign.json both open with.
void WriteTotals(JsonWriter& json, const std::string& fingerprint,
                 const CampaignReport& report) {
  json.Key("campaign").String(fingerprint)
      .Key("jobs").Int(report.total_jobs)
      .Key("ok").Int(report.ok)
      .Key("failed").Int(report.failed)
      .Key("quarantined").Int(report.quarantined);
}

std::string RenderManifest(const std::string& fingerprint,
                           const CampaignReport& report,
                           const std::vector<ShardRow>& shards) {
  JsonWriter json;
  json.BeginObject(JsonLayout::kBlock);
  WriteTotals(json, fingerprint, report);
  json.Key("pending").Int(report.pending)
      .Key("stopped").Bool(report.stopped)
      .Key("complete").Bool(report.pending == 0)
      .Key("shards").BeginArray(JsonLayout::kBlock);
  for (std::size_t shard = 0; shard < shards.size(); ++shard) {
    json.BeginObject(JsonLayout::kInline)
        .Key("shard").Int(static_cast<std::int64_t>(shard))
        .Key("jobs").Int(shards[shard].jobs)
        .Key("recorded").Int(shards[shard].recorded).End();
  }
  json.End().End();
  return json.Finish() + "\n";
}

}  // namespace

Campaign::Campaign(CampaignSpec spec, CampaignOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      fingerprint_(spec_.Fingerprint()) {}

StatusOr<CompiledPlan> Campaign::CompileCell(const CampaignJob& job) const {
  const std::int64_t cell = job.id / spec_.num_protocols();
  auto set = spec_.CellWorkload(cell);
  if (!set.ok()) {
    // Validate() vetted every sweep point, so a generation failure here
    // is a generator bug — classify it as such, not as 8 protocol
    // failures.
    return Status::FailedPrecondition(
        StrFormat("%scell %lld workload generation failed: %s",
                  kGeneratorDefectPrefix, static_cast<long long>(cell),
                  set.status().message().c_str()));
  }
  Scenario scenario{
      StrFormat("campaign_cell_%lld", static_cast<long long>(cell)),
      std::move(set).value(),
      spec_.horizon,
      {},
      {},
      {},
      {}};
  if (options_.hooks.lint_defect_cell == cell) {
    // A dangling expect reference: the cheapest error-level defect, and
    // exactly the shape a generator bug would take (declared facts that
    // do not match the emitted workload).
    CeilingExpectation bogus;
    bogus.write_ceiling = true;
    bogus.item = "no_such_item";
    bogus.txn = "no_such_txn";
    scenario.expects.push_back(bogus);
  }
  if (options_.lint_preflight) {
    const LintReport lint = LintScenario(scenario, LintFilterOptions());
    if (!lint.clean()) {
      std::string first;
      for (const LintDiagnostic& diagnostic : lint.diagnostics) {
        if (diagnostic.severity == LintSeverity::kError) {
          first = StrFormat("%s [%s]", diagnostic.message.c_str(),
                            diagnostic.rule.c_str());
          break;
        }
      }
      return Status::FailedPrecondition(StrFormat(
          "%scell %lld scenario rejected by lint pre-flight: %s",
          kGeneratorDefectPrefix, static_cast<long long>(cell),
          first.c_str()));
    }
  }
  CompileOptions compile;
  compile.lint = false;  // pre-flighted above (or deliberately skipped)
  return CompiledPlan::Compile(std::move(scenario), compile);
}

std::shared_ptr<Campaign::CellPlan> Campaign::CellPlanFor(
    std::int64_t cell) {
  // Enough cells for every executor to be in a different cell plus slack;
  // eviction only costs a recompile, never correctness.
  constexpr std::size_t kMaxCachedCells = 128;
  std::lock_guard<std::mutex> lock(plans_mu_);
  auto it = plans_.find(cell);
  if (it != plans_.end()) return it->second;
  auto entry = std::make_shared<CellPlan>();
  plans_.emplace(cell, entry);
  plan_order_.push_back(cell);
  if (plan_order_.size() > kMaxCachedCells) {
    plans_.erase(plan_order_.front());
    plan_order_.pop_front();
  }
  return entry;
}

std::string Campaign::ShardPath(const std::string& out_dir, int shard) {
  return StrFormat("%s/shard_%03d.ckpt", out_dir.c_str(), shard);
}

bool Campaign::StopRequested() const {
  return internal_stop_.load(std::memory_order_relaxed) ||
         (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed));
}

SimResult Campaign::RunJob(const CampaignJob& job,
                           const JobContext& context) {
  const CampaignOptions::TestHooks& hooks = options_.hooks;
  if (job.id == hooks.segv_job) std::raise(SIGSEGV);
  if (job.id == hooks.spin_job) {
    for (;;) std::this_thread::yield();
  }
  if (job.id == hooks.throw_job) {
    throw std::runtime_error(
        StrFormat("injected crash (job %lld attempt %d)",
                  static_cast<long long>(job.id), context.attempt));
  }
  if (job.id == hooks.hang_job) {
    while (!context.cancelled()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    SimResult result;
    result.status = Status::DeadlineExceeded(StrFormat(
        "injected hang (job %lld)", static_cast<long long>(job.id)));
    return result;
  }

  // The grid is cell-major: the num_protocols() jobs of a cell share a
  // scenario seed, so generate + compile the workload once per cell and
  // let the protocol runs share the plan.
  const std::shared_ptr<CellPlan> cell =
      CellPlanFor(job.id / spec_.num_protocols());
  std::call_once(cell->once, [&] { cell->plan = CompileCell(job); });
  if (!cell->plan.ok()) {
    SimResult result;
    result.status = cell->plan.status();
    return result;
  }

  SimulatorOptions sim_options;
  sim_options.horizon = spec_.horizon;
  sim_options.record_trace = false;
  sim_options.record_history = false;
  sim_options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  sim_options.cancel = context.cancel;
  sim_options.max_sim_ticks = spec_.effective_max_sim_ticks();
  std::unique_ptr<Protocol> protocol = MakeProtocol(
      spec_.protocols[static_cast<std::size_t>(job.protocol_index)]);
  Simulator simulator(cell->plan.value(), protocol.get(), sim_options);
  return simulator.Run();
}

JobRecord Campaign::MakeRecord(const CampaignJob& job,
                               const JobResult& result) const {
  JobRecord record;
  record.job_id = job.id;
  record.outcome = ToString(result.outcome);
  if (result.outcome == JobOutcome::kFailed &&
      IsGeneratorDefect(result.result.status)) {
    record.outcome = "generator_defect";
  }
  record.attempts = result.attempts;
  record.code = ToString(result.result.status.code());
  record.message = result.result.status.message();
  if (result.outcome == JobOutcome::kOk) {
    const RunMetrics& m = result.result.metrics;
    record.released = m.TotalReleased();
    record.committed = m.TotalCommitted();
    record.misses = m.TotalMisses();
    record.blocking_ticks = TotalBlocking(m);
    record.restarts = m.TotalRestarts();
    record.deadlocks = m.deadlocks;
  }
  return record;
}

Status Campaign::WriteQuarantine(const CampaignJob& job,
                                 const JobRecord& record) {
  const std::string dir = options_.out_dir + "/quarantine";
  PCPDA_RETURN_IF_ERROR(MakeDirectories(dir));
  const std::string stem =
      StrFormat("%s/job_%06lld", dir.c_str(),
                static_cast<long long>(job.id));
  JsonWriter info;
  info.BeginObject(JsonLayout::kBlock)
      .Key("job").Int(job.id).Key("scenario_index").Int(job.scenario_index)
      .Key("util_index").Int(job.util_index)
      .Key("utilization")
      .Double(spec_.utilizations[static_cast<std::size_t>(job.util_index)],
              "%g")
      .Key("protocol")
      .String(ToString(
          spec_.protocols[static_cast<std::size_t>(job.protocol_index)]))
      .Key("scenario_seed").Uint(job.scenario_seed)
      .Key("outcome").String(record.outcome)
      .Key("attempts").Int(record.attempts).Key("code").String(record.code)
      .Key("message").String(record.message);
  PCPDA_RETURN_IF_ERROR(
      WriteFileAtomic(stem + ".json", info.End().Finish() + "\n"));

  // Reproduce the poisoned workload as a replayable .scn (deterministic
  // from the seed). Best effort: if generation itself was the failure,
  // the .json record alone documents it.
  const auto set = spec_.CellWorkload(job.id / spec_.num_protocols());
  if (set.ok()) {
    const std::string name =
        StrFormat("quarantine_job_%lld", static_cast<long long>(job.id));
    PCPDA_RETURN_IF_ERROR(WriteFileAtomic(
        stem + ".scn",
        FormatScenario(name, set.value(), spec_.horizon)));
  }
  return Status::Ok();
}

Status Campaign::RunShard(BatchRunner& runner, int shard,
                          ShardSummary& summary) {
  const std::string path = ShardPath(options_.out_dir, shard);
  auto loaded = LoadCheckpoint(path, fingerprint_);
  if (!loaded.ok()) return loaded.status();
  summary.torn_bytes = loaded->torn_bytes;

  const std::vector<CampaignJob> jobs = spec_.JobsForShard(shard);
  const std::vector<CampaignJob> todo = loaded->Unrecorded(jobs);
  summary.jobs = static_cast<std::int64_t>(jobs.size());
  summary.resumed = summary.jobs - static_cast<std::int64_t>(todo.size());

  // Open even when nothing is left to run: Open() truncates any torn
  // tail so the file on disk is exactly its valid prefix.
  CheckpointWriter writer;
  PCPDA_RETURN_IF_ERROR(writer.Open(path, fingerprint_,
                                    loaded->valid_bytes, options_.fsync));

  // Resume order. A job with two unresolved intents killed two processes:
  // it is poison. A job with one was in flight when a process died: it
  // runs alone, so if it kills this process too, its second intent names
  // it and no co-runner. The rest run at --jobs.
  std::vector<CampaignJob> suspects;
  std::vector<CampaignJob> rest;
  for (const CampaignJob& job : todo) {
    const auto intents = loaded->unresolved_intents.find(job.id);
    const int count =
        intents == loaded->unresolved_intents.end() ? 0 : intents->second;
    if (count >= 2) {
      PCPDA_RETURN_IF_ERROR(RecordPoisonJob(writer, job));
      ++summary.ran;
    } else {
      (count == 1 ? suspects : rest).push_back(job);
    }
  }
  if (!suspects.empty()) {
    BatchRunner serial(BatchOptions{1});
    PCPDA_RETURN_IF_ERROR(RunJobs(serial, suspects, writer, summary));
  }
  PCPDA_RETURN_IF_ERROR(RunJobs(runner, rest, writer, summary));
  return writer.Close();
}

Status Campaign::RunJobs(BatchRunner& runner,
                         const std::vector<CampaignJob>& jobs,
                         CheckpointWriter& writer, ShardSummary& summary) {
  if (jobs.empty()) return Status::Ok();
  JobPolicy policy;
  policy.wall_budget_ms = spec_.wall_budget_ms;
  policy.max_retries = spec_.max_retries;
  // The runner watches both the external stop (the CLI's signal flag)
  // and the engine's own flag, which serves stop_after and append-failure
  // aborts.
  policy.stop = options_.stop;
  policy.also_stop = &internal_stop_;

  std::mutex io_mu;
  Status io_status;
  const auto fail = [&](const Status& status) {
    std::lock_guard<std::mutex> lock(io_mu);
    if (io_status.ok()) io_status = status;
    // Durability is gone; stop starting new jobs.
    internal_stop_.store(true, std::memory_order_relaxed);
  };
  std::vector<BatchRunner::PolicyTask> tasks;
  tasks.reserve(jobs.size());
  for (const CampaignJob& job : jobs) {
    tasks.push_back([this, &writer, &fail, job](const JobContext& context) {
      if (context.attempt == 0) {
        const Status status = writer.AppendMark(JobMark::kIntent, job.id);
        if (!status.ok()) {
          fail(status);
          SimResult result;
          result.status = status;
          return result;
        }
      }
      return RunJob(job, context);
    });
  }
  const BatchRunner::CompletionHook on_complete =
      [&](std::size_t i, const JobResult& result) {
    const JobRecord record = MakeRecord(jobs[i], result);
    Status status = writer.Append(record);
    if (status.ok() && record.quarantined()) {
      status = WriteQuarantine(jobs[i], record);
    }
    if (!status.ok()) {
      fail(status);
      return;
    }
    if (options_.hooks.stop_after >= 0 &&
        completions_.fetch_add(1, std::memory_order_relaxed) + 1 >=
            options_.hooks.stop_after) {
      internal_stop_.store(true, std::memory_order_relaxed);
    }
  };

  const std::vector<JobResult> results =
      runner.RunTasksWithPolicy(tasks, policy, on_complete);
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (results[i].outcome == JobOutcome::kCancelled) {
      // The stop, not the job, ended it: resolve its intent.
      const Status status = writer.AppendMark(JobMark::kCancel, jobs[i].id);
      if (!status.ok()) fail(status);
    } else if (results[i].outcome != JobOutcome::kSkipped) {
      ++summary.ran;
    }
  }
  std::lock_guard<std::mutex> lock(io_mu);
  return io_status;
}

Status Campaign::Finalize(CampaignReport& report, ExecutorPool& pool) {
  const std::int64_t num_jobs = spec_.num_jobs();
  std::vector<std::unique_ptr<JobRecord>> by_id(
      static_cast<std::size_t>(num_jobs));
  for (int shard = 0; shard < spec_.shards; ++shard) {
    auto loaded =
        LoadCheckpoint(ShardPath(options_.out_dir, shard), fingerprint_);
    if (!loaded.ok()) return loaded.status();
    for (JobRecord& record : loaded->records) {
      if (record.job_id >= num_jobs) continue;  // stale/foreign record
      auto& slot = by_id[static_cast<std::size_t>(record.job_id)];
      // Keep the first occurrence: a crash between append and resume can
      // at worst duplicate a record, and the first one is the one every
      // earlier merge saw.
      if (slot == nullptr) {
        slot = std::make_unique<JobRecord>(std::move(record));
      }
    }
  }

  report.total_jobs = num_jobs;
  std::vector<ShardRow> shard_rows;
  for (int shard = 0; shard < spec_.shards; ++shard) {
    const std::int64_t first =
        spec_.CellBegin(shard) * spec_.num_protocols();
    const std::int64_t last =
        spec_.CellBegin(shard + 1) * spec_.num_protocols();
    std::int64_t pending = 0;
    for (std::int64_t id = first; id < last; ++id) {
      const JobRecord* record = by_id[static_cast<std::size_t>(id)].get();
      if (record == nullptr) {
        ++pending;
      } else if (record->outcome == "ok") {
        ++report.ok;
      } else if (record->quarantined()) {
        ++report.quarantined;
      } else {
        ++report.failed;
      }
    }
    report.pending += pending;
    shard_rows.push_back({last - first, last - first - pending});
  }

  report.manifest_path = options_.out_dir + "/MANIFEST.json";
  PCPDA_RETURN_IF_ERROR(WriteFileAtomic(
      report.manifest_path,
      RenderManifest(fingerprint_, report, shard_rows)));

  if (report.pending == 0) {
    std::vector<JobRecord> records;
    records.reserve(static_cast<std::size_t>(num_jobs));
    for (auto& slot : by_id) records.push_back(*slot);
    report.bench_path = options_.out_dir + "/BENCH_campaign.json";
    PCPDA_RETURN_IF_ERROR(WriteFileAtomic(
        report.bench_path, RenderBench(report, records, pool)));
    report.merged = true;
  }
  return Status::Ok();
}

std::string Campaign::RenderBench(const CampaignReport& report,
                                  const std::vector<JobRecord>& records,
                                  ExecutorPool& pool) const {
  // Analysis pass: regenerate each cell's workload from its seed (job
  // inputs depend only on (spec, id), so this reproduces exactly what
  // the workers simulated — the checkpoint codec stays untouched) and
  // compute the static verdict per protocol. Generator-defect cells
  // keep kUnknown for every protocol. Cells are independent and each
  // writes only its own preallocated row, so they fan out over the pool
  // without changing a byte of the output.
  const std::size_t num_cells = static_cast<std::size_t>(spec_.num_cells());
  std::vector<std::vector<SchedVerdict>> analytic(
      num_cells, std::vector<SchedVerdict>(
                     static_cast<std::size_t>(spec_.num_protocols()),
                     SchedVerdict::kUnknown));
  const auto analyze_cell = [&](std::size_t cell) {
    const auto set = spec_.CellWorkload(static_cast<std::int64_t>(cell));
    if (!set.ok()) return;
    for (int p = 0; p < spec_.num_protocols(); ++p) {
      const ProtocolKind kind =
          spec_.protocols[static_cast<std::size_t>(p)];
      analytic[cell][static_cast<std::size_t>(p)] =
          AnalyzeResponseTimes(set.value(),
                               ComputeBlocking(set.value(), kind))
              .verdict;
    }
  };
  pool.ParallelFor(num_cells, analyze_cell);

  // Acceptance table: protocol-major, then the utilization sweep. Every
  // row aggregates the `scenarios` runs of its (protocol, utilization)
  // column; failed/quarantined runs count against acceptance but their
  // metrics are excluded (they are not trustworthy). The analytic_*
  // fields put the static acceptance curve next to the simulated one —
  // analytic_ratio can only undershoot ratio on a sound analysis
  // (schedulable claims are conservative, simulation is one witness).
  JsonWriter json;
  json.BeginObject(JsonLayout::kBlock);
  WriteTotals(json, fingerprint_, report);
  json.Key("acceptance").BeginArray(JsonLayout::kBlock);
  for (int p = 0; p < spec_.num_protocols(); ++p) {
    for (int u = 0; u < spec_.num_utils(); ++u) {
      std::int64_t accepted = 0, row_failed = 0;
      std::int64_t committed = 0, misses = 0, blocking = 0, restarts = 0,
                   deadlocks = 0;
      std::int64_t sched = 0, unsched = 0, unknown = 0;
      for (int s = 0; s < spec_.scenarios; ++s) {
        const std::int64_t cell =
            static_cast<std::int64_t>(s) * spec_.num_utils() + u;
        const SchedVerdict verdict = analytic[static_cast<std::size_t>(
            cell)][static_cast<std::size_t>(p)];
        sched += verdict == SchedVerdict::kSchedulable;
        unsched += verdict == SchedVerdict::kUnschedulable;
        unknown += verdict == SchedVerdict::kUnknown;
        const JobRecord& record = records[static_cast<std::size_t>(
            cell * spec_.num_protocols() + p)];
        if (record.outcome == "ok") {
          if (record.accepted()) ++accepted;
          committed += record.committed;
          misses += record.misses;
          blocking += record.blocking_ticks;
          restarts += record.restarts;
          deadlocks += record.deadlocks;
        } else if (record.outcome != "generator_defect") {
          // Generator defects fail the *cell*, not the protocol: they
          // count against acceptance (not in `accepted`) but are kept
          // out of the per-row protocol failure tally — the failures
          // array below still itemizes them.
          ++row_failed;
        }
      }
      const double scenarios = static_cast<double>(spec_.scenarios);
      json.BeginObject(JsonLayout::kInline)
          .Key("protocol")
          .String(ToString(spec_.protocols[static_cast<std::size_t>(p)]))
          .Key("utilization")
          .Double(spec_.utilizations[static_cast<std::size_t>(u)], "%g")
          .Key("scenarios").Int(spec_.scenarios)
          .Key("accepted").Int(accepted)
          .Key("ratio").Double(static_cast<double>(accepted) / scenarios,
                               "%.6f")
          .Key("analytic_schedulable").Int(sched)
          .Key("analytic_unschedulable").Int(unsched)
          .Key("analytic_unknown").Int(unknown)
          .Key("analytic_ratio")
          .Double(static_cast<double>(sched) / scenarios, "%.6f")
          .Key("failed").Int(row_failed).Key("committed").Int(committed)
          .Key("misses").Int(misses).Key("blocking_ticks").Int(blocking)
          .Key("restarts").Int(restarts).Key("deadlocks").Int(deadlocks)
          .End();
    }
  }
  json.End();

  // Explicit failure accounting, by job id (deterministic order).
  json.Key("failures").BeginArray(JsonLayout::kBlock);
  for (const JobRecord& record : records) {
    if (record.outcome == "ok") continue;
    json.BeginObject(JsonLayout::kInline)
        .Key("job").Int(record.job_id).Key("outcome").String(record.outcome)
        .Key("quarantined").Bool(record.quarantined())
        .Key("attempts").Int(record.attempts).Key("code").String(record.code)
        .End();
  }
  json.End().End();
  return json.Finish() + "\n";
}

StatusOr<CampaignReport> Campaign::Run() {
  PCPDA_RETURN_IF_ERROR(spec_.Validate());
  if (options_.out_dir.empty()) {
    return Status::InvalidArgument("CampaignOptions.out_dir is required");
  }
  if (options_.only_shard >= spec_.shards) {
    return Status::InvalidArgument(
        StrFormat("only_shard %d out of range for %d shards",
                  options_.only_shard, spec_.shards));
  }
  PCPDA_RETURN_IF_ERROR(MakeDirectories(options_.out_dir));

  CampaignReport report;
  BatchRunner runner(BatchOptions{options_.jobs});
  const int first =
      options_.only_shard >= 0 ? options_.only_shard : 0;
  const int last =
      options_.only_shard >= 0 ? options_.only_shard + 1 : spec_.shards;
  for (int shard = first; shard < last; ++shard) {
    if (StopRequested()) break;
    ShardSummary summary;
    summary.shard = shard;
    PCPDA_RETURN_IF_ERROR(RunShard(runner, shard, summary));
    report.shards.push_back(summary);
  }
  report.stopped = StopRequested();
  PCPDA_RETURN_IF_ERROR(Finalize(report, runner.pool()));
  return report;
}

StatusOr<CampaignReport> Campaign::Merge(bool stopped) {
  PCPDA_RETURN_IF_ERROR(spec_.Validate());
  if (options_.out_dir.empty()) {
    return Status::InvalidArgument("CampaignOptions.out_dir is required");
  }
  CampaignReport report;
  report.stopped = stopped;
  // No runner here: the analytic pass runs on the calling thread.
  ExecutorPool serial(1);
  PCPDA_RETURN_IF_ERROR(Finalize(report, serial));
  return report;
}

Status Campaign::RecordPoisonJob(CheckpointWriter& writer,
                                 const CampaignJob& job) {
  JobRecord record;
  record.job_id = job.id;
  record.outcome = "crash";
  record.attempts = 2;
  record.code = "Internal";
  record.message =
      "the campaign process died twice while running this job (two "
      "intent records, no result); quarantined";
  PCPDA_RETURN_IF_ERROR(writer.Append(record));
  return WriteQuarantine(job, record);
}

}  // namespace pcpda
