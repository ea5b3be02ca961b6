#include "campaign/campaign.h"

#include <chrono>
#include <csignal>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
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
  const std::string info = StrFormat(
      "{\n"
      "  \"job\": %lld,\n"
      "  \"scenario_index\": %d,\n"
      "  \"util_index\": %d,\n"
      "  \"utilization\": %g,\n"
      "  \"protocol\": \"%s\",\n"
      "  \"scenario_seed\": %llu,\n"
      "  \"outcome\": \"%s\",\n"
      "  \"attempts\": %d,\n"
      "  \"code\": \"%s\",\n"
      "  \"message\": \"%s\"\n"
      "}\n",
      static_cast<long long>(job.id), job.scenario_index, job.util_index,
      spec_.utilizations[static_cast<std::size_t>(job.util_index)],
      JsonEscape(ToString(spec_.protocols[static_cast<std::size_t>(
                     job.protocol_index)]))
          .c_str(),
      static_cast<unsigned long long>(job.scenario_seed),
      JsonEscape(record.outcome).c_str(), record.attempts,
      JsonEscape(record.code).c_str(), JsonEscape(record.message).c_str());
  PCPDA_RETURN_IF_ERROR(WriteFileAtomic(stem + ".json", info));

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

  // With a bisection range, summaries account the *assigned* jobs only:
  // ids outside [job_first, job_last) belong to sibling workers.
  const std::vector<CampaignJob> assigned =
      spec_.JobsForRange(shard, options_.job_first, options_.job_last);
  const std::vector<CampaignJob> todo = loaded->Unrecorded(assigned);
  summary.jobs = static_cast<std::int64_t>(assigned.size());
  summary.resumed = summary.jobs - static_cast<std::int64_t>(todo.size());

  // Open even when nothing is left to run: Open() truncates any torn
  // tail so the file on disk is exactly its valid prefix. The heartbeat
  // (or any other progress listener) hears of a record only once the
  // fsync that covers it has returned.
  CheckpointWriter::DurableCallback on_durable;
  if (options_.on_record) {
    on_durable = [this](std::int64_t count) {
      for (std::int64_t i = 0; i < count; ++i) options_.on_record();
    };
  }
  CheckpointWriter writer;
  PCPDA_RETURN_IF_ERROR(writer.Open(path, fingerprint_,
                                    loaded->valid_bytes, options_.fsync,
                                    std::move(on_durable)));
  if (todo.empty()) return writer.Close();

  JobPolicy policy;
  policy.max_sim_ticks = spec_.effective_max_sim_ticks();
  policy.wall_budget_ms = spec_.wall_budget_ms;
  policy.max_retries = spec_.max_retries;
  // The runner watches both the external stop (the CLI's signal flag)
  // and the engine's own flag, which serves stop_after and append-failure
  // aborts.
  policy.stop = options_.stop;
  policy.also_stop = &internal_stop_;

  std::mutex io_mu;
  Status io_status;
  std::vector<BatchRunner::PolicyTask> tasks;
  tasks.reserve(todo.size());
  for (const CampaignJob& job : todo) {
    tasks.push_back([this, job](const JobContext& context) {
      return RunJob(job, context);
    });
  }
  const BatchRunner::CompletionHook on_complete =
      [&](std::size_t i, const JobResult& result) {
    const JobRecord record = MakeRecord(todo[i], result);
    Status status = writer.Append(record);
    if (status.ok() && record.quarantined()) {
      status = WriteQuarantine(todo[i], record);
    }
    if (!status.ok()) {
      std::lock_guard<std::mutex> lock(io_mu);
      if (io_status.ok()) io_status = status;
      // Durability is gone; stop starting new jobs.
      internal_stop_.store(true, std::memory_order_relaxed);
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
  for (const JobResult& result : results) {
    if (result.outcome != JobOutcome::kSkipped &&
        result.outcome != JobOutcome::kCancelled) {
      ++summary.ran;
    }
  }
  PCPDA_RETURN_IF_ERROR(writer.Close());
  {
    std::lock_guard<std::mutex> lock(io_mu);
    return io_status;
  }
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
  std::vector<std::string> shard_rows;
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
    shard_rows.push_back(StrFormat(
        "    {\"shard\": %d, \"jobs\": %lld, \"recorded\": %lld}", shard,
        static_cast<long long>(last - first),
        static_cast<long long>(last - first - pending)));
  }

  report.manifest_path = options_.out_dir + "/MANIFEST.json";
  PCPDA_RETURN_IF_ERROR(WriteFileAtomic(
      report.manifest_path, RenderManifest(report, shard_rows)));

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

std::string Campaign::RenderManifest(
    const CampaignReport& report,
    const std::vector<std::string>& shard_rows) const {
  return StrFormat(
      "{\n"
      "  \"campaign\": \"%s\",\n"
      "  \"jobs\": %lld,\n"
      "  \"ok\": %lld,\n"
      "  \"failed\": %lld,\n"
      "  \"quarantined\": %lld,\n"
      "  \"pending\": %lld,\n"
      "  \"stopped\": %s,\n"
      "  \"complete\": %s,\n"
      "  \"shards\": [\n%s\n  ]\n"
      "}\n",
      fingerprint_.c_str(), static_cast<long long>(report.total_jobs),
      static_cast<long long>(report.ok),
      static_cast<long long>(report.failed),
      static_cast<long long>(report.quarantined),
      static_cast<long long>(report.pending),
      report.stopped ? "true" : "false",
      report.pending == 0 ? "true" : "false",
      Join(shard_rows, ",\n").c_str());
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
  std::vector<std::string> rows;
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
      rows.push_back(StrFormat(
          "    {\"protocol\": \"%s\", \"utilization\": %g, "
          "\"scenarios\": %d, \"accepted\": %lld, \"ratio\": %.6f, "
          "\"analytic_schedulable\": %lld, "
          "\"analytic_unschedulable\": %lld, "
          "\"analytic_unknown\": %lld, \"analytic_ratio\": %.6f, "
          "\"failed\": %lld, \"committed\": %lld, \"misses\": %lld, "
          "\"blocking_ticks\": %lld, \"restarts\": %lld, "
          "\"deadlocks\": %lld}",
          ToString(spec_.protocols[static_cast<std::size_t>(p)]),
          spec_.utilizations[static_cast<std::size_t>(u)],
          spec_.scenarios, static_cast<long long>(accepted),
          static_cast<double>(accepted) /
              static_cast<double>(spec_.scenarios),
          static_cast<long long>(sched), static_cast<long long>(unsched),
          static_cast<long long>(unknown),
          static_cast<double>(sched) /
              static_cast<double>(spec_.scenarios),
          static_cast<long long>(row_failed),
          static_cast<long long>(committed),
          static_cast<long long>(misses),
          static_cast<long long>(blocking),
          static_cast<long long>(restarts),
          static_cast<long long>(deadlocks)));
    }
  }

  // Explicit failure accounting, by job id (deterministic order).
  std::vector<std::string> failures;
  for (const JobRecord& record : records) {
    if (record.outcome == "ok") continue;
    failures.push_back(StrFormat(
        "    {\"job\": %lld, \"outcome\": \"%s\", \"quarantined\": %s, "
        "\"attempts\": %d, \"code\": \"%s\"}",
        static_cast<long long>(record.job_id), record.outcome.c_str(),
        record.quarantined() ? "true" : "false", record.attempts,
        record.code.c_str()));
  }

  return StrFormat(
      "{\n"
      "  \"campaign\": \"%s\",\n"
      "  \"jobs\": %lld,\n"
      "  \"ok\": %lld,\n"
      "  \"failed\": %lld,\n"
      "  \"quarantined\": %lld,\n"
      "  \"acceptance\": [\n%s\n  ],\n"
      "  \"failures\": [%s%s]\n"
      "}\n",
      fingerprint_.c_str(), static_cast<long long>(report.total_jobs),
      static_cast<long long>(report.ok),
      static_cast<long long>(report.failed),
      static_cast<long long>(report.quarantined), Join(rows, ",\n").c_str(),
      failures.empty() ? "" : ("\n" + Join(failures, ",\n")).c_str(),
      failures.empty() ? "" : "\n  ");
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
  if (options_.worker && options_.only_shard < 0) {
    return Status::InvalidArgument(
        "worker mode requires an assigned shard (only_shard)");
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
  if (options_.worker) {
    // The supervisor owns MANIFEST/BENCH: parallel workers must never
    // race on them, so a worker reports its shard summaries and stops.
    return report;
  }
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

Status Campaign::RecordPoisonJob(const JobRecord& record) {
  const CampaignJob job = spec_.JobById(record.job_id);
  const std::string path =
      ShardPath(options_.out_dir, spec_.ShardOfJob(job.id));
  auto loaded = LoadCheckpoint(path, fingerprint_);
  if (!loaded.ok()) return loaded.status();
  // Already recorded (e.g. the worker appended before dying on the
  // fsync): keep the first occurrence, like every other merge path.
  if (loaded->Unrecorded({job}).empty()) return Status::Ok();
  CheckpointWriter writer;
  // Always durable: the supervisor writes this record, and a lost
  // poison record would send the campaign back into bisection.
  PCPDA_RETURN_IF_ERROR(
      writer.Open(path, fingerprint_, loaded->valid_bytes, /*fsync=*/true));
  PCPDA_RETURN_IF_ERROR(writer.Append(record));
  PCPDA_RETURN_IF_ERROR(writer.Close());
  return WriteQuarantine(job, record);
}

}  // namespace pcpda
