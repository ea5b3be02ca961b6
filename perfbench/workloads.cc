// The benchmark's workload program. One process runs one workload:
//
//   perfbench_workloads --workload=<campaign_grid|long_horizon|fuzz_oracles>
//       --seed=<n> --seconds=<s> --trace=<0|1> --work-dir=<dir>
//       [--short] [--setup-only]
//
// It sets the workload up, runs one untimed warm-up round (whose output is
// the reference every later round must reproduce), runs the workload's
// untimed verification, then times identical rounds until --seconds have
// passed. Throughput comes from the fastest round: on a shared host the
// slow rounds measure the neighbours, not the program (README.md).
//
// Every run also executes the workload once more decomposed into its
// public layer calls and checks that it produced the same output; that
// pass yields the exact per-layer work counts. With --trace=1 the
// decomposed pass is repeated with a span around every layer call and the
// per-layer times of its fastest round are reported.
//
// The last stdout line is one JSON object that run.py turns into the
// benchmark's result line. --setup-only sets the workload up, prints
// {"ready_ns": <CLOCK_MONOTONIC ns>} and exits; an untraced run spawns such
// processes between its cycles and reports the median time from spawn to
// that instant as the set-up time.

#include <malloc.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/pcp_da.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "lint/lint.h"
#include "plan/compiled_plan.h"
#include "runner/batch_runner.h"
#include "sched/simulator.h"
#include "spans.h"
#include "workload/generator.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

using perfbench::NowNs;
using perfbench::ScopedSpan;
using perfbench::Span;
using perfbench::SpanRecorder;

constexpr const char kSchemaVersion[] = "perfbench/1";

double Seconds(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Millis(std::int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Exact work counts of one decomposed round. They depend only on the
/// inputs, so they repeat on every run of a seed; a change that alters
/// simulated behaviour shows here even when it claims only speed.
struct Counts {
  std::int64_t sim_ticks = 0;
  std::int64_t lock_decisions = 0;
  std::int64_t jobs_released = 0;
  std::int64_t jobs_committed = 0;
  std::int64_t restarts = 0;
  std::int64_t history_committed_txns = 0;
  std::int64_t checkpoint_bytes = 0;
  std::int64_t fuzz_iterations = 0;
  std::int64_t fuzz_findings = 0;

  void Add(const Counts& other) {
    sim_ticks += other.sim_ticks;
    lock_decisions += other.lock_decisions;
    jobs_released += other.jobs_released;
    jobs_committed += other.jobs_committed;
    restarts += other.restarts;
    history_committed_txns += other.history_committed_txns;
    checkpoint_bytes += other.checkpoint_bytes;
    fuzz_iterations += other.fuzz_iterations;
    fuzz_findings += other.fuzz_findings;
  }

  void AddRun(const RunMetrics& metrics) {
    Tick ticks = metrics.idle_ticks;
    for (const SpecMetrics& spec : metrics.per_spec) {
      ticks += spec.busy_ticks;
    }
    sim_ticks += ticks;
    lock_decisions += metrics.lock_decisions;
    jobs_released += metrics.TotalReleased();
    jobs_committed += metrics.TotalCommitted();
    restarts += metrics.TotalRestarts();
  }
};

/// One untraced, timed round.
struct Round {
  double seconds = 0.0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  /// The round's observable output; every round must reproduce the
  /// warm-up round's bytes.
  std::string output;
};

/// One decomposed round (traced when a recorder is given).
struct Decomposed {
  /// Every layer call succeeded and every job came out ok.
  bool ok = true;
  std::string problem;
  std::string output;
  Counts counts;
  /// The round's window; standalone re-calls run after end_ns.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  void Fail(std::string why) {
    if (ok) problem = std::move(why);
    ok = false;
  }
};

/// Simulator construction + Run, then destruction, as two spans.
SimResult RunSimulator(SpanRecorder* recorder, const CompiledPlan& plan,
                       Protocol* protocol, const SimulatorOptions& options) {
  std::optional<Simulator> simulator;
  SimResult result;
  {
    ScopedSpan span(recorder, "sched.run");
    simulator.emplace(plan, protocol, options);
    result = simulator->Run();
  }
  {
    ScopedSpan span(recorder, "sched.teardown");
    simulator.reset();
  }
  return result;
}

/// Records the wait between a batch's start and a task's start.
void RecordQueueWait(SpanRecorder* recorder, std::int64_t batch_span,
                     std::int64_t batch_start_ns) {
  if (recorder == nullptr) return;
  Span span;
  span.name = "runner.queue_wait";
  span.start_ns = batch_start_ns;
  span.end_ns = NowNs();
  span.id = recorder->NextId();
  span.parent = batch_span;
  recorder->Record(span);
}

/// A workload runs K inputs, all derived from the seed. Each input is
/// timed as identical rounds, and the workload's throughput is its K
/// inputs' work over the sum of their fastest rounds: several inputs keep
/// one unusual input from setting a seed's result (README.md).
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the inputs: input selection and generation, spec validation,
  /// plan compilation. Repeatable; each call starts from scratch.
  virtual Status SetUp(SpanRecorder* recorder) = 0;
  virtual int inputs() const = 0;
  /// Work units in one round of one input, and their name.
  virtual double work_per_round() const = 0;
  virtual const char* work_unit() const = 0;
  /// Concurrent executors the workload uses.
  virtual int jobs() const { return 1; }
  /// One untraced round of `input`; `index` is unique per round.
  virtual Round RunRound(int input, int index) = 0;
  /// Untimed checks beyond the per-round output comparison.
  virtual Status Verify() { return Status::Ok(); }
  virtual Decomposed RunDecomposed(SpanRecorder* recorder, int input,
                                   int index) = 0;
};

// ---------------------------------------------------------------------
// campaign_grid: Campaign::Run on the E17 cell shape, fsync'd checkpoints.

class CampaignGrid : public Workload {
 public:
  CampaignGrid(std::uint64_t seed, bool short_run, int jobs,
               std::string work_dir)
      : seed_(seed),
        short_run_(short_run),
        jobs_(jobs),
        work_dir_(std::move(work_dir)) {}

  Status SetUp(SpanRecorder*) override {
    specs_.clear();
    fingerprints_.clear();
    for (int input = 0; input < kInputs; ++input) {
      CampaignSpec spec;
      spec.base_seed =
          SplitMixSeed(seed_, static_cast<std::uint64_t>(input));
      spec.scenarios = short_run_ ? 1 : 3;
      spec.shards = 1;
      spec.protocols = AllProtocolKinds();
      spec.horizon = 3000;
      spec.workload.num_transactions = 8;
      spec.workload.num_items = 20;
      PCPDA_RETURN_IF_ERROR(spec.Validate());
      fingerprints_.push_back(spec.Fingerprint());
      specs_.push_back(std::move(spec));
    }
    std::error_code ec;
    std::filesystem::create_directories(work_dir_, ec);
    if (ec) return Status::Internal("mkdir " + work_dir_);
    return Status::Ok();
  }

  int inputs() const override { return kInputs; }
  double work_per_round() const override {
    return static_cast<double>(specs_.front().num_jobs());
  }
  const char* work_unit() const override { return "jobs"; }
  int jobs() const override { return jobs_; }

  Round RunRound(int input, int index) override {
    const CampaignSpec& spec = specs_[static_cast<std::size_t>(input)];
    CampaignOptions options;
    options.out_dir = RoundDir(index);
    options.jobs = jobs_;
    options.fsync = true;
    options.lint_preflight = true;
    Round round;
    round.attempted = spec.num_jobs();
    const std::int64_t start = NowNs();
    StatusOr<CampaignReport> report = Campaign(spec, options).Run();
    round.seconds = Seconds(NowNs() - start);
    if (!report.ok() || !report->merged) {
      round.failed = round.attempted;
    } else {
      round.failed = report->failed + report->quarantined + report->pending;
      round.output = ReadOrEmpty(report->bench_path);
    }
    RemoveDir(options.out_dir);
    return round;
  }

  Decomposed RunDecomposed(SpanRecorder* recorder, int input,
                           int index) override {
    const CampaignSpec& spec = specs_[static_cast<std::size_t>(input)];
    Decomposed out;
    const std::string dir = RoundDir(index);
    const std::string shard_path = Campaign::ShardPath(dir, 0);
    const std::int64_t num_cells = spec.num_cells();
    std::vector<std::unique_ptr<CellPrep>> cells;
    for (std::int64_t c = 0; c < num_cells; ++c) {
      cells.push_back(std::make_unique<CellPrep>());
    }
    const std::vector<CampaignJob> jobs = spec.JobsForShard(0);

    out.start_ns = NowNs();
    std::optional<BatchRunner> runner;
    {
      ScopedSpan span(recorder, "runner.pool_start");
      runner.emplace(BatchOptions{jobs_});
    }
    CheckpointWriter writer;
    Status status;
    {
      ScopedSpan span(recorder, "campaign.open");
      std::error_code ec;
      std::filesystem::create_directories(dir, ec);
      status = writer.Open(shard_path,
                           fingerprints_[static_cast<std::size_t>(input)],
                           0, /*fsync=*/true);
    }
    if (!status.ok()) out.Fail(status.ToString());

    // The campaign's own robustness policy; the stop flag also arms the
    // per-attempt watchdog exactly as Campaign::Run's does.
    std::atomic<bool> stop{false};
    JobPolicy policy;
    policy.max_sim_ticks = spec.effective_max_sim_ticks();
    policy.wall_budget_ms = spec.wall_budget_ms;
    policy.max_retries = spec.max_retries;
    policy.stop = &stop;
    std::mutex append_mu;
    Status append_status;
    std::vector<JobResult> results;
    if (status.ok()) {
      ScopedSpan batch(recorder, "runner.batch");
      const std::int64_t batch_id = batch.id();
      const std::int64_t batch_start = NowNs();
      std::vector<BatchRunner::PolicyTask> tasks;
      for (const CampaignJob& job : jobs) {
        tasks.push_back([&, job](const JobContext& context) {
          if (context.attempt == 0) {
            RecordQueueWait(recorder, batch_id, batch_start);
          }
          ScopedSpan task(recorder, "runner.task", batch_id);
          return RunJob(recorder, spec,
                        *cells[static_cast<std::size_t>(
                            job.id / spec.num_protocols())],
                        job, context);
        });
      }
      const BatchRunner::CompletionHook on_complete =
          [&](std::size_t i, const JobResult& result) {
            ScopedSpan span(recorder, "campaign.append", batch_id);
            const Status appended =
                writer.Append(MakeRecord(jobs[i], result));
            if (!appended.ok()) {
              std::lock_guard<std::mutex> lock(append_mu);
              if (append_status.ok()) append_status = appended;
              stop.store(true);
            }
          };
      results = runner->RunTasksWithPolicy(tasks, policy, on_complete);
    }
    {
      ScopedSpan span(recorder, "campaign.close");
      const Status closed = writer.Close();
      if (status.ok() && !closed.ok()) out.Fail(closed.ToString());
    }
    {
      ScopedSpan span(recorder, "runner.pool_stop");
      runner.reset();
    }
    StatusOr<CampaignReport> merged{CampaignReport{}};
    {
      ScopedSpan span(recorder, "campaign.merge");
      CampaignOptions options;
      options.out_dir = dir;
      merged = Campaign(spec, options).Merge(/*stopped=*/false);
    }
    out.end_ns = NowNs();

    if (!append_status.ok()) out.Fail(append_status.ToString());
    for (const JobResult& result : results) {
      if (result.outcome != JobOutcome::kOk) {
        out.Fail("job " + result.result.status.ToString());
      } else {
        out.counts.AddRun(result.result.metrics);
      }
    }
    if (results.size() != jobs.size()) out.Fail("batch lost jobs");
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(shard_path, ec);
    out.counts.checkpoint_bytes = ec ? 0 : static_cast<std::int64_t>(bytes);
    if (!merged.ok() || !merged->merged) {
      out.Fail("merge did not complete");
    } else {
      out.output = ReadOrEmpty(merged->bench_path);
    }
    RemoveDir(dir);

    // The merge's analysis pass, called again standalone so its cost shows
    // as its own layer: one blocking analysis + RTA per cell x protocol.
    if (recorder != nullptr) {
      for (const auto& cell : cells) {
        if (!cell->plan.ok()) continue;
        for (ProtocolKind kind : spec.protocols) {
          RecallAnalysis(recorder, cell->plan->set(), kind);
        }
      }
    }
    return out;
  }

 private:
  /// A cell's generate -> lint -> compile, done once by the first of its
  /// jobs to run (the campaign shares plans per cell the same way).
  struct CellPrep {
    std::once_flag once;
    StatusOr<CompiledPlan> plan{CompiledPlan{}};
  };

  static void RecallAnalysis(SpanRecorder* recorder,
                             const TransactionSet& set, ProtocolKind kind) {
    std::optional<BlockingAnalysis> blocking;
    {
      ScopedSpan span(recorder, "analysis.blocking");
      blocking.emplace(ComputeBlocking(set, kind));
    }
    ScopedSpan span(recorder, "analysis.rta");
    AnalyzeResponseTimes(set, *blocking);
  }

  static StatusOr<CompiledPlan> PrepareCell(SpanRecorder* recorder,
                                            const CampaignSpec& spec,
                                            const CampaignJob& job) {
    WorkloadParams params = spec.workload;
    params.total_utilization =
        spec.utilizations[static_cast<std::size_t>(job.util_index)];
    Rng rng(job.scenario_seed);
    std::optional<StatusOr<TransactionSet>> set;
    {
      ScopedSpan span(recorder, "workload.generate");
      set.emplace(GenerateWorkload(params, rng));
    }
    if (!set->ok()) return set->status();
    const std::int64_t cell = job.id / spec.num_protocols();
    Scenario scenario{
        StrFormat("campaign_cell_%lld", static_cast<long long>(cell)),
        std::move(*set).value(),
        spec.horizon,
        {},
        {},
        {},
        {}};
    {
      ScopedSpan span(recorder, "lint");
      if (!LintScenario(scenario, LintFilterOptions()).clean()) {
        return Status::FailedPrecondition("cell rejected by lint");
      }
    }
    ScopedSpan span(recorder, "plan.compile");
    CompileOptions compile;
    compile.lint = false;
    return CompiledPlan::Compile(std::move(scenario), compile);
  }

  static SimResult RunJob(SpanRecorder* recorder, const CampaignSpec& spec,
                          CellPrep& cell, const CampaignJob& job,
                          const JobContext& context) {
    std::call_once(cell.once,
                   [&] { cell.plan = PrepareCell(recorder, spec, job); });
    if (!cell.plan.ok()) {
      SimResult result;
      result.status = cell.plan.status();
      return result;
    }
    SimulatorOptions options;
    options.horizon = spec.horizon;
    options.record_trace = false;
    options.record_history = false;
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    options.cancel = context.cancel;
    options.max_sim_ticks = spec.effective_max_sim_ticks();
    std::unique_ptr<Protocol> protocol = MakeProtocol(
        spec.protocols[static_cast<std::size_t>(job.protocol_index)]);
    return RunSimulator(recorder, cell.plan.value(), protocol.get(),
                        options);
  }

  /// The checkpoint record Campaign::Run writes for a finished job.
  static JobRecord MakeRecord(const CampaignJob& job,
                              const JobResult& result) {
    JobRecord record;
    record.job_id = job.id;
    record.outcome = ToString(result.outcome);
    record.attempts = result.attempts;
    record.code = ToString(result.result.status.code());
    record.message = result.result.status.message();
    if (result.outcome == JobOutcome::kOk) {
      const RunMetrics& m = result.result.metrics;
      record.released = m.TotalReleased();
      record.committed = m.TotalCommitted();
      record.misses = m.TotalMisses();
      Tick blocking = 0;
      for (const SpecMetrics& spec : m.per_spec) {
        blocking += spec.effective_blocking_ticks;
      }
      record.blocking_ticks = static_cast<std::int64_t>(blocking);
      record.restarts = m.TotalRestarts();
      record.deadlocks = m.deadlocks;
    }
    return record;
  }

  std::string RoundDir(int index) const {
    return StrFormat("%s/round_%04d", work_dir_.c_str(), index);
  }
  static std::string ReadOrEmpty(const std::string& path) {
    StatusOr<std::string> text = ReadFileToString(path);
    return text.ok() ? std::move(text).value() : std::string();
  }
  static void RemoveDir(const std::string& dir) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  /// Four grids (108 cells): one grid's task sets sway its cost by
  /// several percent between seeds.
  static constexpr int kInputs = 4;
  const std::uint64_t seed_;
  const bool short_run_;
  const int jobs_;
  const std::string work_dir_;
  std::vector<CampaignSpec> specs_;
  std::vector<std::string> fingerprints_;
};

// ---------------------------------------------------------------------
// long_horizon: one PCP-DA Simulator::Run per round from one plan.

class LongHorizon : public Workload {
 public:
  LongHorizon(std::uint64_t seed, bool short_run)
      : seed_(seed), horizon_(short_run ? 150000 : 1500000) {}

  /// Draws task sets from the seed's candidate stream until kInputs of
  /// them release between kMinJobRate and kMaxJobRate jobs per tick. The
  /// generator's default periods alone spread the job rate 5x, and with
  /// it ticks/s; the band keeps every seed's inputs the same size.
  Status SetUp(SpanRecorder* recorder) override {
    plans_.clear();
    for (std::uint64_t candidate = 0;
         static_cast<int>(plans_.size()) < kInputs; ++candidate) {
      if (candidate >= kMaxCandidates) {
        return Status::Internal("no task set in the job-rate band");
      }
      WorkloadParams params;
      params.num_transactions = 8;
      params.num_items = 24;
      params.total_utilization = 0.45;
      params.min_ops = 3;
      params.max_ops = 3;
      Rng rng(SplitMixSeed(seed_, candidate));
      std::optional<StatusOr<TransactionSet>> set;
      {
        ScopedSpan span(recorder, "workload.generate");
        set.emplace(GenerateWorkload(params, rng));
      }
      PCPDA_RETURN_IF_ERROR(set->status());
      double job_rate = 0.0;
      for (SpecId spec = 0; spec < set->value().size(); ++spec) {
        job_rate += 1.0 / static_cast<double>(set->value().spec(spec).period);
      }
      if (job_rate < kMinJobRate || job_rate > kMaxJobRate) continue;
      ScopedSpan span(recorder, "plan.compile");
      CompileOptions compile;
      compile.lint = false;  // generated workloads are well-formed
      StatusOr<CompiledPlan> plan = CompiledPlan::Compile(
          StrFormat("long_horizon_%d", static_cast<int>(plans_.size())),
          std::move(*set).value(), horizon_, compile);
      PCPDA_RETURN_IF_ERROR(plan.status());
      plans_.push_back(std::move(plan).value());
    }
    return Status::Ok();
  }

  int inputs() const override { return kInputs; }
  double work_per_round() const override {
    return static_cast<double>(horizon_);
  }
  const char* work_unit() const override { return "simulated ticks"; }

  Round RunRound(int input, int) override {
    const CompiledPlan& plan = plans_[static_cast<std::size_t>(input)];
    Round round;
    round.attempted = 1;
    const std::int64_t start = NowNs();
    const SimResult result = RunOnce(nullptr, plan);
    round.seconds = Seconds(NowNs() - start);
    if (result.status.ok()) {
      round.output = result.metrics.DebugString(plan.set());
    } else {
      round.failed = 1;
    }
    return round;
  }

  /// A short run of every input with the auditor and history on: the
  /// invariants hold and the committed history is conflict serializable.
  Status Verify() override {
    for (const CompiledPlan& plan : plans_) {
      PcpDa protocol;
      SimulatorOptions options;
      options.horizon = 20000;
      options.record_trace = false;
      options.record_history = true;
      options.audit = true;
      const SimResult result =
          RunSimulator(nullptr, plan, &protocol, options);
      PCPDA_RETURN_IF_ERROR(result.status);
      if (!IsSerializable(result.history)) {
        return Status::Internal(plan.scenario().name +
                                ": audited run is not serializable");
      }
    }
    return Status::Ok();
  }

  Decomposed RunDecomposed(SpanRecorder* recorder, int input,
                           int) override {
    const CompiledPlan& plan = plans_[static_cast<std::size_t>(input)];
    Decomposed out;
    out.start_ns = NowNs();
    const SimResult result = RunOnce(recorder, plan);
    out.end_ns = NowNs();
    if (!result.status.ok()) {
      out.Fail(result.status.ToString());
      return out;
    }
    out.counts.AddRun(result.metrics);
    out.output = result.metrics.DebugString(plan.set());
    return out;
  }

 private:
  SimResult RunOnce(SpanRecorder* recorder, const CompiledPlan& plan) {
    PcpDa protocol;
    SimulatorOptions options;
    options.horizon = horizon_;
    options.record_trace = false;
    options.record_history = false;
    return RunSimulator(recorder, plan, &protocol, options);
  }

  static constexpr int kInputs = 4;
  /// Around the median job rate of 8 transactions with the generator's
  /// default periods (0.0497 per tick, about 74k releases per 1.5M
  /// ticks); about one candidate in 13 lands in the band.
  static constexpr double kMinJobRate = 0.048;
  static constexpr double kMaxJobRate = 0.051;
  static constexpr std::uint64_t kMaxCandidates = 10000;
  const std::uint64_t seed_;
  const Tick horizon_;
  std::vector<CompiledPlan> plans_;
};

// ---------------------------------------------------------------------
// fuzz_oracles: ScenarioFuzzer::Run, every oracle on.

class FuzzOracles : public Workload {
 public:
  FuzzOracles(std::uint64_t seed, bool short_run)
      : seed_(seed), iterations_(short_run ? 5 : 20) {}

  /// Picks kInputs fuzz campaigns from the seed's candidate stream: those
  /// whose scenarios carry no probability-driven arrival burst. Such a
  /// burst can release hundreds of jobs inside a 240-tick horizon, and
  /// the scenario then costs up to several hundred times a median one
  /// (README.md), so one of them would decide a seed's throughput. Bursts
  /// at a fixed tick stay in.
  Status SetUp(SpanRecorder*) override {
    options_.clear();
    for (std::uint64_t candidate = 0;
         static_cast<int>(options_.size()) < kInputs; ++candidate) {
      if (candidate >= kMaxCandidates) {
        return Status::Internal("no fuzz campaign without bursts");
      }
      FuzzOptions options;
      options.seed = SplitMixSeed(seed_, candidate);
      options.iterations = iterations_;
      options.jobs = 1;
      options.horizon_cap = 240;
      options.fault_probability = 0.5;
      options.lint = true;
      options.oracles.check_determinism = true;
      if (WithoutRandomBursts(options)) options_.push_back(options);
    }
    return Status::Ok();
  }

  int inputs() const override { return kInputs; }
  double work_per_round() const override { return iterations_; }
  const char* work_unit() const override { return "iterations"; }

  Round RunRound(int input, int) override {
    Round round;
    round.attempted = iterations_;
    const std::int64_t start = NowNs();
    const FuzzReport report =
        ScenarioFuzzer(options_[static_cast<std::size_t>(input)]).Run();
    round.seconds = Seconds(NowNs() - start);
    round.failed = static_cast<std::int64_t>(report.findings.size()) +
                   (report.io_status.ok() ? 0 : 1);
    round.output = report.Summary();
    return round;
  }

  Decomposed RunDecomposed(SpanRecorder* recorder, int input,
                           int) override {
    const FuzzOptions& options = options_[static_cast<std::size_t>(input)];
    Decomposed out;
    const ScenarioFuzzer fuzzer(options);
    const std::vector<ProtocolKind> kinds =
        options.oracles.protocols.empty() ? AllProtocolKinds()
                                          : options.oracles.protocols;
    const std::size_t repeats = options.oracles.check_determinism ? 2 : 1;
    // What the standalone history/analysis re-calls need per iteration.
    struct Checked {
      Scenario scenario;
      std::vector<SimResult> results;
    };
    std::vector<Checked> checked;
    FuzzReport report;

    out.start_ns = NowNs();
    std::optional<BatchRunner> runner;
    {
      ScopedSpan span(recorder, "runner.pool_start");
      runner.emplace(BatchOptions{options.jobs});
    }
    for (int iteration = 0; iteration < iterations_; ++iteration) {
      report.iterations = iteration + 1;
      std::optional<StatusOr<Scenario>> scenario;
      {
        ScopedSpan span(recorder, "fuzz.scenario");
        scenario.emplace(fuzzer.MakeScenario(iteration));
      }
      if (!scenario->ok()) {
        AddFinding(report, iteration, "generator");
        continue;
      }
      const Scenario& scenario_in = scenario->value();
      if (scenario_in.faults.enabled()) ++report.scenarios_with_faults;
      {
        ScopedSpan span(recorder, "lint");
        if (!LintScenario(scenario_in, LintFilterOptions()).clean()) {
          AddFinding(report, iteration, "lint");
          continue;
        }
      }
      std::optional<StatusOr<CompiledPlan>> plan;
      {
        ScopedSpan span(recorder, "plan.compile");
        CompileOptions compile;
        compile.lint = false;
        plan.emplace(CompiledPlan::Compile(scenario_in, compile));
      }
      const std::vector<RunSpec> specs =
          plan->ok() ? PlanOracleRuns(plan->value(), options.oracles)
                     : PlanOracleRuns(scenario_in, options.oracles);
      std::vector<SimResult> results;
      {
        ScopedSpan batch(recorder, "runner.batch");
        const std::int64_t batch_id = batch.id();
        const std::int64_t batch_start = NowNs();
        std::vector<std::function<SimResult()>> tasks;
        for (const RunSpec& spec : specs) {
          tasks.push_back([&, batch_id, batch_start] {
            RecordQueueWait(recorder, batch_id, batch_start);
            ScopedSpan task(recorder, "runner.task", batch_id);
            return RunSpecTraced(recorder, spec);
          });
        }
        results = runner->RunTasks(tasks);
      }
      std::optional<OracleVerdict> verdict;
      {
        ScopedSpan span(recorder, "fuzz.evaluate");
        verdict.emplace(
            EvaluateOracleRuns(scenario_in, options.oracles, results));
      }
      if (!verdict->ok()) {
        AddFinding(report, iteration, verdict->failures.front().oracle);
      }
      // An empty plan (no usable horizon) is a config finding above.
      if (results.size() != kinds.size() * repeats) continue;
      for (std::size_t k = 0; k < kinds.size(); ++k) {
        const SimResult& result = results[k * repeats];
        if (result.status.ok()) {
          out.counts.history_committed_txns += static_cast<std::int64_t>(
              result.history.committed().size());
        }
        for (std::size_t r = 0; r < repeats; ++r) {
          out.counts.AddRun(results[k * repeats + r].metrics);
        }
      }
      if (recorder != nullptr) {
        checked.push_back(Checked{scenario_in, std::move(results)});
      }
    }
    {
      ScopedSpan span(recorder, "runner.pool_stop");
      runner.reset();
    }
    out.end_ns = NowNs();

    out.counts.fuzz_iterations = report.iterations;
    out.counts.fuzz_findings =
        static_cast<std::int64_t>(report.findings.size());
    if (!report.findings.empty()) {
      out.Fail("finding: " + report.findings.front().failure.oracle);
    }
    out.output = report.Summary();
    if (recorder != nullptr) {
      for (const Checked& entry : checked) {
        RecallChecks(recorder, entry.scenario, kinds, repeats,
                      entry.results, out);
      }
    }
    return out;
  }

 private:
  /// BatchRunner::RunOne, with the simulator's construction + run and its
  /// teardown as spans when the spec is compiled.
  static SimResult RunSpecTraced(SpanRecorder* recorder,
                                 const RunSpec& spec) {
    if (spec.plan == nullptr) return BatchRunner::RunOne(spec);
    SimulatorOptions options = spec.options;
    if (options.horizon <= 0) options.horizon = spec.scenario->horizon;
    if (!options.faults.enabled()) options.faults = spec.scenario->faults;
    if (spec.seed != 0) options.faults.seed = spec.seed;
    std::unique_ptr<Protocol> protocol =
        spec.protocol == ProtocolKind::kPcpDa
            ? std::make_unique<PcpDa>(spec.pcp_da)
            : MakeProtocol(spec.protocol);
    return RunSimulator(recorder, *spec.plan, protocol.get(), options);
  }

  /// The fuzzer finds nothing at the seed; a finding is recorded by
  /// oracle only (no shrinking) and fails the run.
  static void AddFinding(FuzzReport& report, int iteration,
                         const std::string& oracle) {
    FuzzFinding finding;
    finding.iteration = iteration;
    finding.failure.oracle = oracle;
    report.findings.push_back(std::move(finding));
  }

  /// The history and analysis calls EvaluateOracleRuns makes, called again
  /// standalone on the same results so each layer's cost shows on its
  /// own. They are not subtracted from fuzz.evaluate. The workload
  /// generation inside MakeScenario is called again the same way and must
  /// reproduce the scenario's transaction set.
  static void RecallChecks(SpanRecorder* recorder,
                           const Scenario& scenario,
                           const std::vector<ProtocolKind>& kinds,
                           std::size_t repeats,
                           const std::vector<SimResult>& results,
                           Decomposed& out) {
    const bool fault_free = scenario.faults.faults.empty();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const SimResult& result = results[k * repeats];
      if (!result.status.ok()) continue;
      bool serializable = false;
      {
        ScopedSpan span(recorder, "history.serializable");
        serializable = IsSerializable(result.history);
      }
      if (serializable) {
        ScopedSpan span(recorder, "history.replay");
        ReplaySerialWitness(result.history, scenario.set.item_count());
      }
      if (!fault_free) continue;
      if (TraitsOf(kinds[k]).analyzable()) {
        ScopedSpan span(recorder, "analysis.blocking");
        ComputeBlocking(scenario.set, kinds[k]);
      }
      std::optional<BlockingAnalysis> blocking;
      {
        ScopedSpan span(recorder, "analysis.blocking");
        blocking.emplace(ComputeBlocking(scenario.set, kinds[k]));
      }
      ScopedSpan span(recorder, "analysis.rta");
      AnalyzeResponseTimes(scenario.set, *blocking);
    }
    RecallGenerate(recorder, scenario, out);
  }

  /// Re-draws the workload parameters exactly as
  /// ScenarioFuzzer::MakeScenario does (the scenario name carries the
  /// scenario seed) and times GenerateWorkload on them.
  static void RecallGenerate(SpanRecorder* recorder,
                              const Scenario& scenario, Decomposed& out) {
    unsigned long long scenario_seed = 0;
    int iteration = 0;
    if (std::sscanf(scenario.name.c_str(), "fuzz_%16llx_i%d",
                    &scenario_seed, &iteration) != 2) {
      out.Fail("unexpected fuzz scenario name " + scenario.name);
      return;
    }
    Rng rng(scenario_seed);
    WorkloadParams params;
    params.num_transactions = static_cast<int>(rng.UniformInt(2, 6));
    params.num_items = static_cast<int>(rng.UniformInt(2, 8));
    params.total_utilization = rng.UniformRange(0.3, 0.95);
    params.min_period = rng.UniformInt(20, 40);
    params.max_period = params.min_period + rng.UniformInt(20, 160);
    params.min_ops = 1;
    params.max_ops = static_cast<int>(
        rng.UniformInt(1, std::min(4, params.num_items)));
    params.write_fraction = rng.UniformRange(0.0, 0.8);
    std::optional<StatusOr<TransactionSet>> set;
    {
      ScopedSpan span(recorder, "workload.generate");
      set.emplace(GenerateWorkload(params, rng));
    }
    if (!set->ok() ||
        FormatScenario("x", set->value(), scenario.horizon) !=
            FormatScenario("x", scenario.set, scenario.horizon)) {
      out.Fail("GenerateWorkload called again diverged from MakeScenario");
    }
  }

  /// True when every scenario of the campaign generates and none carries
  /// a probability-driven arrival burst.
  bool WithoutRandomBursts(const FuzzOptions& options) const {
    const ScenarioFuzzer fuzzer(options);
    for (int iteration = 0; iteration < iterations_; ++iteration) {
      const StatusOr<Scenario> scenario = fuzzer.MakeScenario(iteration);
      if (!scenario.ok()) return false;
      for (const FaultSpec& fault : scenario->faults.faults) {
        if (fault.kind == FaultKind::kBurstArrival && fault.at == kNoTick) {
          return false;
        }
      }
    }
    return true;
  }

  /// Twelve campaigns (240 scenarios): per-scenario cost still varies
  /// with a coefficient of variation near 0.5.
  static constexpr int kInputs = 12;
  static constexpr std::uint64_t kMaxCandidates = 100000;
  const std::uint64_t seed_;
  const int iterations_;
  std::vector<FuzzOptions> options_;
};

// ---------------------------------------------------------------------
// Output.

/// Minimal JSON object writer for the program's one result line.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, StrFormat("%.17g", value));
  }
  JsonObject& Int(const std::string& key, std::int64_t value) {
    return Raw(key, StrFormat("%lld", static_cast<long long>(value)));
  }
  JsonObject& UInt(const std::string& key, std::uint64_t value) {
    return Raw(key,
               StrFormat("%llu", static_cast<unsigned long long>(value)));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') {
        quoted += '\\';
        quoted += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        quoted += StrFormat("\\u%04x", c);
      } else {
        quoted += c;
      }
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.Render());
  }
  std::string Render() const { return "{" + Join(fields_, ", ") + "}"; }

 private:
  JsonObject& Raw(const std::string& key, const std::string& value) {
    fields_.push_back("\"" + key + "\": " + value);
    return *this;
  }
  std::vector<std::string> fields_;
};

/// FNV-1a, to print a short fingerprint of the verified output.
std::string Digest(const std::string& bytes) {
  std::uint64_t hash = 1469598103934665603ull;
  for (unsigned char c : bytes) {
    hash = (hash ^ c) * 1099511628211ull;
  }
  return StrFormat("%016llx", static_cast<unsigned long long>(hash));
}

/// Nearest-rank quantile of sorted values.
double Quantile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const std::size_t rank = static_cast<std::size_t>(
      std::max<double>(0.0, std::ceil(q * static_cast<double>(n)) - 1.0));
  return sorted[std::min(rank, n - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

JsonObject CountsJson(const Counts& counts) {
  JsonObject json;
  json.Int("sched.sim_ticks", counts.sim_ticks)
      .Int("sched.lock_decisions", counts.lock_decisions)
      .Int("sched.jobs_released", counts.jobs_released)
      .Int("sched.jobs_committed", counts.jobs_committed)
      .Int("sched.restarts", counts.restarts)
      .Int("history.committed_txns", counts.history_committed_txns)
      .Int("campaign.checkpoint_bytes", counts.checkpoint_bytes)
      .Int("fuzz.iterations", counts.fuzz_iterations)
      .Int("fuzz.findings", counts.fuzz_findings);
  return json;
}

/// Per-layer metrics: each input's fastest traced round plus the traced
/// set-up.
JsonObject LayersJson(const perfbench::RoundSummary& layers,
                      const Counts& counts, int jobs, double coverage,
                      double overhead) {
  const auto total = [&](const char* name) {
    const auto it = layers.layers.find(name);
    return it == layers.layers.end() ? perfbench::LayerTotal{} : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const auto generate = total("workload.generate");
  const auto lint = total("lint");
  const auto compile = total("plan.compile");
  const auto run = total("sched.run");
  const auto teardown = total("sched.teardown");
  const auto serializable = total("history.serializable");
  const auto replay = total("history.replay");
  const auto blocking = total("analysis.blocking");
  const auto rta = total("analysis.rta");
  const auto batch = total("runner.batch");
  const auto task = total("runner.task");
  const auto wait = total("runner.queue_wait");
  const auto append = total("campaign.append");
  const auto sim_ticks = static_cast<double>(counts.sim_ticks);

  JsonObject json;
  json.Int("workload.generate_calls", generate.calls)
      .Num("workload.generate_ms", Millis(generate.busy_ns))
      .Int("lint.calls", lint.calls)
      .Num("lint.busy_ms", Millis(lint.busy_ns))
      .Int("plan.compile_calls", compile.calls)
      .Num("plan.compile_ms", Millis(compile.busy_ns))
      .Int("sched.run_calls", run.calls)
      .Num("sched.run_ms", Millis(run.busy_ns))
      .Num("sched.teardown_ms", Millis(teardown.busy_ns))
      .Int("sched.sim_ticks", counts.sim_ticks)
      .Num("sched.ns_per_tick",
           ratio(static_cast<double>(run.busy_ns), sim_ticks))
      .Int("sched.lock_decisions", counts.lock_decisions)
      .Num("sched.decisions_per_ktick",
           ratio(1000.0 * static_cast<double>(counts.lock_decisions),
                 sim_ticks))
      .Int("sched.jobs_released", counts.jobs_released)
      .Int("sched.jobs_committed", counts.jobs_committed)
      .Int("sched.restarts", counts.restarts)
      .Num("sched.useful_ratio",
           ratio(static_cast<double>(counts.jobs_committed),
                 static_cast<double>(counts.jobs_committed +
                                     counts.restarts)))
      .Int("history.calls", serializable.calls + replay.calls)
      .Num("history.busy_ms", Millis(serializable.busy_ns + replay.busy_ns))
      .Int("history.committed_txns", counts.history_committed_txns)
      .Int("analysis.calls", blocking.calls + rta.calls)
      .Num("analysis.busy_ms", Millis(blocking.busy_ns + rta.busy_ns))
      .Num("fuzz.scenario_ms", Millis(total("fuzz.scenario").busy_ns))
      .Num("fuzz.evaluate_ms", Millis(total("fuzz.evaluate").busy_ns))
      .Int("fuzz.iterations", counts.fuzz_iterations)
      .Int("fuzz.findings", counts.fuzz_findings)
      .Num("runner.batch_ms", Millis(batch.busy_ns))
      .Num("runner.task_ms", Millis(task.busy_ns))
      .Num("runner.queue_wait_ms", Millis(wait.busy_ns))
      .Num("runner.parallel_efficiency",
           ratio(static_cast<double>(task.busy_ns),
                 static_cast<double>(batch.busy_ns) * jobs))
      .Int("campaign.append_calls", append.calls)
      .Num("campaign.append_ms", Millis(append.busy_ns))
      .Int("campaign.checkpoint_bytes", counts.checkpoint_bytes)
      .Num("campaign.merge_ms", Millis(total("campaign.merge").busy_ns))
      .Num("trace.coverage", coverage)
      .Num("trace.overhead", overhead);
  return json;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool short_run = false;
  bool setup_only = false;
  std::string work_dir = ".bench_build/work";
  /// Where a traced run writes its kept spans (JSON lines); empty = none.
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string flag = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    std::int64_t trace = 0;
    bool parsed = true;
    if (arg == "--short") {
      args.short_run = true;
    } else if (arg == "--setup-only") {
      args.setup_only = true;
    } else if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else if (flag == "--seed") {
      parsed = ParseFlagUInt64("--seed", value,
                               std::numeric_limits<std::uint64_t>::max(),
                               &args.seed);
    } else if (flag == "--seconds") {
      parsed = ParseFlagDouble("--seconds", value, 0.01, 3600.0,
                               &args.seconds);
    } else if (flag == "--trace") {
      parsed = ParseFlagInt64("--trace", value, 0, 1, &trace);
      args.trace = trace == 1;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      parsed = false;
    }
    if (!parsed) return false;
  }
  return !args.workload.empty() && !args.work_dir.empty();
}

/// Runs cycles, each one round of every input, until `budget_s` has
/// passed and at least three cycles ran.
/// Spawns a fresh copy of this program in --setup-only mode and returns
/// the seconds from the spawn to the instant its inputs were ready, or a
/// negative value when the child failed.
double TimeFreshSetUp(const char* program, const Args& args) {
  std::vector<std::string> argv = {
      program, "--workload=" + args.workload,
      StrFormat("--seed=%llu", static_cast<unsigned long long>(args.seed)),
      "--work-dir=" + args.work_dir, "--setup-only"};
  if (args.short_run) argv.push_back("--short");
  std::vector<char*> child_argv;
  for (std::string& arg : argv) child_argv.push_back(arg.data());
  child_argv.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  const std::int64_t start = NowNs();
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, program, &actions, nullptr,
                                  child_argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[256];
  ssize_t n = 0;
  while (spawned == 0 && (n = read(fds[0], buffer, sizeof buffer)) > 0) {
    out.append(buffer, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) return -1.0;
  int status = 0;
  waitpid(pid, &status, 0);
  long long ready_ns = 0;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      std::sscanf(out.c_str(), "{\"ready_ns\": %lld}", &ready_ns) != 1) {
    return -1.0;
  }
  return Seconds(ready_ns - start);
}

template <typename Body>
void TimeCycles(double budget_s, int inputs, Body round) {
  const std::int64_t start = NowNs();
  for (int cycle = 0; cycle < 3 || Seconds(NowNs() - start) < budget_s;
       ++cycle) {
    for (int input = 0; input < inputs; ++input) round(input);
  }
}

void WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  for (const Span& span : spans) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %lld, \"parent\": %lld, \"round\": %d}\n",
                 span.name, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns),
                 static_cast<long long>(span.id),
                 static_cast<long long>(span.parent), span.round);
  }
  std::fclose(out);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_workloads --workload=<name> --seed=<n> "
                 "--seconds=<s> --trace=<0|1> [--work-dir=<dir>] "
                 "[--spans-out=<file>] [--short] [--setup-only]\n");
    return 2;
  }
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  const int campaign_jobs = std::max(1, std::min(4, nproc));
  const std::string work_dir =
      StrFormat("%s/%s-%d", args.work_dir.c_str(), args.workload.c_str(),
                static_cast<int>(getpid()));
  std::unique_ptr<Workload> workload;
  if (args.workload == "campaign_grid") {
    workload = std::make_unique<CampaignGrid>(args.seed, args.short_run,
                                              campaign_jobs, work_dir);
  } else if (args.workload == "long_horizon") {
    workload = std::make_unique<LongHorizon>(args.seed, args.short_run);
  } else if (args.workload == "fuzz_oracles") {
    workload = std::make_unique<FuzzOracles>(args.seed, args.short_run);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  const Status setup = workload->SetUp(nullptr);
  if (!setup.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", setup.ToString().c_str());
    return 1;
  }
  if (args.setup_only) {
    const std::int64_t ready = NowNs();
    std::error_code ec;
    std::filesystem::remove_all(work_dir, ec);
    std::printf("{\"ready_ns\": %lld}\n", static_cast<long long>(ready));
    return 0;
  }

  const int inputs = workload->inputs();
  const auto slot = [](int input) { return static_cast<std::size_t>(input); };
  std::vector<std::string> problems;
  int index = 0;
  std::vector<std::string> references(slot(inputs));
  for (int input = 0; input < inputs; ++input) {
    const Round warmup = workload->RunRound(input, index++);
    malloc_trim(0);
    if (warmup.failed > 0 || warmup.output.empty()) {
      problems.push_back(StrFormat("warm-up round of input %d failed", input));
    }
    references[slot(input)] = warmup.output;
  }
  const Status verified = workload->Verify();
  if (!verified.ok()) problems.push_back(verified.ToString());

  // Untraced rounds: the end-to-end metrics (and the trace overhead's
  // baseline in a traced run).
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  std::vector<double> fastest_s(slot(inputs), 0.0);
  std::vector<double> cycle_s;
  std::int64_t rounds = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  // Set-up is timed in fresh processes spawned between rounds, about
  // kSetUpSamples of them spread over the run, so a short phase of host
  // noise cannot set the median; a traced run reports no set-up time.
  constexpr int kSetUpSamples = 30;
  std::vector<double> setup_s;
  std::int64_t next_setup_ns = 0;
  TimeCycles(budget, inputs, [&](int input) {
    if (!args.trace && NowNs() >= next_setup_ns) {
      const double seconds = TimeFreshSetUp(argv[0], args);
      if (seconds < 0) {
        problems.push_back("set-up process failed");
      } else {
        setup_s.push_back(seconds);
      }
      next_setup_ns =
          NowNs() + static_cast<std::int64_t>(budget * 1e9 / kSetUpSamples);
    }
    const Round round = workload->RunRound(input, index++);
    // Hand the round's freed heap back, so the process peak is one round's
    // footprint and not an accident of how earlier rounds fragmented it.
    malloc_trim(0);
    double& fastest = fastest_s[slot(input)];
    if (rounds < inputs || round.seconds < fastest) fastest = round.seconds;
    if (input == 0) cycle_s.push_back(0.0);
    cycle_s.back() += round.seconds;
    ++rounds;
    attempted += round.attempted;
    // A round whose output differs from the reference failed as a whole.
    failed += round.output == references[slot(input)] ? round.failed
                                                      : round.attempted;
  });
  const double peak_rss_mb = PeakRssMb();
  std::sort(setup_s.begin(), setup_s.end());
  double fastest_total_s = 0.0;
  for (double seconds : fastest_s) fastest_total_s += seconds;
  std::sort(cycle_s.begin(), cycle_s.end());

  // The decomposed pass: exact counts, and agreement with the untraced
  // output. Traced, it is repeated and each input's fastest round kept.
  bool agrees = true;
  std::string trace_problem;
  const auto check = [&](const Decomposed& d, int input) {
    if (d.ok && d.output == references[slot(input)]) return;
    if (agrees) {
      trace_problem = !d.ok ? d.problem
                            : StrFormat("decomposed output of input %d "
                                        "differs from the untraced round's",
                                        input);
    }
    agrees = false;
  };
  Counts counts;
  perfbench::RoundSummary layers;
  std::int64_t traced_ns = 0;
  if (!args.trace) {
    for (int input = 0; input < inputs; ++input) {
      const Decomposed d = workload->RunDecomposed(nullptr, input, index++);
      check(d, input);
      counts.Add(d.counts);
    }
  } else {
    SpanRecorder recorder;
    recorder.set_round(0);
    const Status traced_setup = workload->SetUp(&recorder);
    if (!traced_setup.ok()) problems.push_back(traced_setup.ToString());
    std::vector<Span> kept = recorder.Take();
    layers = perfbench::Summarize(kept, 0, 0, 0);
    struct Best {
      std::int64_t ns = -1;
      Decomposed decomposed;
      perfbench::RoundSummary summary;
      std::vector<Span> spans;
    };
    std::vector<Best> best(slot(inputs));
    int round_id = 0;
    TimeCycles(budget, inputs, [&](int input) {
      recorder.set_round(++round_id);
      Decomposed d = workload->RunDecomposed(&recorder, input, index++);
      std::vector<Span> spans = recorder.Take();
      malloc_trim(0);  // as after every untraced round
      check(d, input);
      Best& slot_best = best[slot(input)];
      const std::int64_t ns = d.end_ns - d.start_ns;
      if (slot_best.ns < 0 || ns < slot_best.ns) {
        slot_best.ns = ns;
        slot_best.summary =
            perfbench::Summarize(spans, round_id, d.start_ns, d.end_ns);
        slot_best.decomposed = std::move(d);
        slot_best.spans = std::move(spans);
      }
    });
    for (Best& entry : best) {
      counts.Add(entry.decomposed.counts);
      layers.Add(entry.summary);
      traced_ns += entry.ns;
      kept.insert(kept.end(), entry.spans.begin(), entry.spans.end());
    }
    if (!args.spans_out.empty()) WriteSpans(args.spans_out, kept);
  }
  if (!agrees) problems.push_back(trace_problem);

  const double work = workload->work_per_round() * inputs;
  const bool correct = problems.empty() && failed == 0;
  JsonObject diagnostics;
  diagnostics.Int("inputs", inputs)
      .Int("rounds", rounds)
      .Int("cycles", static_cast<std::int64_t>(cycle_s.size()))
      .Num("fastest_rounds_sum_s", fastest_total_s)
      .Num("cycle_fastest_s", cycle_s.front())
      .Num("cycle_p10_s", Quantile(cycle_s, 0.10))
      .Num("cycle_median_s", Quantile(cycle_s, 0.50))
      .Num("cycle_slowest_s", cycle_s.back());
  JsonObject provenance;
  provenance.Str("schema", kSchemaVersion)
      .Int("nproc", nproc)
      .Int("jobs", workload->jobs())
      .Str("build_type", PERFBENCH_BUILD_TYPE)
      .Str("compiler", PERFBENCH_COMPILER);
  JsonObject result;
  result.Str("workload", args.workload)
      .UInt("seed", args.seed)
      .Bool("short", args.short_run)
      .Bool("correct", correct)
      .Int("attempted", attempted)
      .Int("failed", failed)
      .Str("work_unit", workload->work_unit())
      .Num("work_per_cycle", work)
      .Obj("rounds", diagnostics)
      .Num("throughput_per_s", work / fastest_total_s)
      .Num("error_rate", attempted > 0 ? static_cast<double>(failed) /
                                             static_cast<double>(attempted)
                                       : 0.0)
      .Num("peak_rss_mb", peak_rss_mb)
      .Int("setup_samples", static_cast<std::int64_t>(setup_s.size()))
      .Num("setup_s", setup_s.empty() ? 0.0 : Quantile(setup_s, 0.5))
      .Str("output_digest", Digest(Join(references, "\n")))
      .Bool("trace_agrees", agrees)
      .Obj("counts", CountsJson(counts))
      .Obj("provenance", provenance)
      .Str("problems", Join(problems, "; "));
  if (args.trace) {
    const double traced_s = Seconds(traced_ns);
    const double coverage =
        traced_s > 0.0 ? Seconds(layers.top_level_ns) / traced_s : 0.0;
    result.Obj("layers",
               LayersJson(layers, counts, workload->jobs(), coverage,
                          traced_s / fastest_total_s - 1.0));
  }
  std::error_code ec;
  std::filesystem::remove_all(work_dir, ec);
  std::printf("%s\n", result.Render().c_str());
  return 0;
}

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) { return pcpda::Main(argc, argv); }
