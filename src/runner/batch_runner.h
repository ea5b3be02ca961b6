#ifndef PCPDA_RUNNER_BATCH_RUNNER_H_
#define PCPDA_RUNNER_BATCH_RUNNER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/pcp_da.h"
#include "protocols/factory.h"
#include "runner/executor_pool.h"
#include "runner/watchdog.h"
#include "sched/simulator.h"
#include "workload/scenario.h"

namespace pcpda {

/// One simulation job of a batch: scenario x protocol x seed x options.
struct RunSpec {
  /// The scenario to simulate. Must outlive the batch. A null scenario
  /// makes that job fail with InvalidArgument without touching the rest
  /// of the batch.
  const Scenario* scenario = nullptr;
  ProtocolKind protocol = ProtocolKind::kPcpDa;
  /// Fault-plan seed override: nonzero replaces the scenario's own fault
  /// seed, so job grids can draw independent streams via
  /// SplitMixSeed(base_seed, job_index). 0 keeps the scenario's seed.
  std::uint64_t seed = 0;
  /// options.horizon == 0 falls back to scenario->horizon, and an empty
  /// options.faults falls back to scenario->faults.
  SimulatorOptions options;
  /// Options for PCP-DA instances (the guard-ablation hook); ignored for
  /// every other protocol kind.
  PcpDaOptions pcp_da;
  /// Compiled artifact for `scenario`, shared across every spec of the
  /// same scenario: the run reuses its precomputed ceilings and arrival
  /// cursor instead of lowering the scenario again. Null compiles
  /// `scenario` (lint off) for this run alone. When set, it must have
  /// been compiled from the same scenario (the fallbacks still read
  /// `scenario` for horizon and faults) and must outlive the batch.
  /// Results are byte-identical either way.
  const CompiledPlan* plan = nullptr;
};

struct BatchOptions {
  /// Concurrent executors, calling thread included; < 1 clamps to 1.
  /// Results never depend on this value.
  int jobs = 1;
};

/// How one job of a policy batch ended.
enum class JobOutcome : std::uint8_t {
  /// The job ran to completion with an OK status.
  kOk,
  /// The job ran (possibly more than once) and ended with a non-OK
  /// status: a config rejection, an audit failure, or a captured
  /// exception.
  kFailed,
  /// A watchdog budget (wall-clock or tick) expired and the job was
  /// abandoned.
  kTimeout,
  /// The stop flag fired while the job was in flight; it was abandoned
  /// and should be re-run on resume.
  kCancelled,
  /// The stop flag fired before the job started; it never ran.
  kSkipped,
};

const char* ToString(JobOutcome outcome);

/// Result of one job under a JobPolicy.
struct JobResult {
  SimResult result;
  JobOutcome outcome = JobOutcome::kSkipped;
  /// Attempts actually made (0 for skipped jobs, > 1 after retries).
  int attempts = 0;
};

/// Per-job robustness policy for RunWithPolicy/RunTasksWithPolicy.
struct JobPolicy {
  /// Deterministic watchdog: per-attempt budget of scheduled simulator
  /// ticks (SimulatorOptions::max_sim_ticks); 0 = unlimited. Outcomes
  /// depend only on the job's inputs, so this is the budget of choice
  /// when resumed campaigns must merge byte-identically.
  Tick max_sim_ticks = 0;
  /// Wall-clock watchdog: per-attempt budget in milliseconds enforced by
  /// a monitor thread through cooperative cancellation; 0 = unlimited.
  /// An attempt still running one more budget after its cancel kills the
  /// process (see Watchdog). Nondeterministic by nature — the backstop
  /// for genuine hangs.
  int wall_budget_ms = 0;
  /// Bounded retry for transient failures: a job whose attempt ends in a
  /// captured exception (kInternal) is re-run up to this many extra
  /// times before being reported as kFailed. Deterministic failures fail
  /// every attempt and come out identical; a flake that passes on retry
  /// is reclassified as OK with attempts > 1.
  int max_retries = 0;
  /// Graceful stop (SIGINT/SIGTERM): when either pointed-at flag becomes
  /// true, jobs not yet started are skipped and in-flight jobs are
  /// cancelled through the watchdog. Two sources let a caller watch an
  /// external signal flag and its own flag at once (the campaign's
  /// stop_after and append-failure stop). Null never stops.
  const std::atomic<bool>* stop = nullptr;
  const std::atomic<bool>* also_stop = nullptr;
};

/// What a policy task sees about its own attempt.
struct JobContext {
  /// 0-based attempt number.
  int attempt = 0;
  /// The attempt's cancel flag; long-running bodies should poll it (the
  /// simulator does, once per tick, via SimulatorOptions::cancel).
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

/// Executes batches of independent simulations on an ExecutorPool and
/// collects results in submission order — bit-identical to the serial
/// loop by construction: every job's inputs (scenario, protocol, fault
/// seed, options) are fixed before the batch starts, a job touches no
/// state shared with any other job, and slot i of the result vector
/// belongs to job i alone. See DESIGN.md §10 for why determinism
/// survives work stealing.
///
/// Exception safety: a job body that throws never escapes the batch — the
/// exception is captured on the worker that ran it and surfaced as that
/// job's failed status (kInternal with the message), leaving every other
/// job's result intact.
class BatchRunner {
 public:
  using PolicyTask = std::function<SimResult(const JobContext&)>;
  /// Invoked on the executing worker immediately after a job's policy
  /// resolves (all retries done), before the batch returns — the hook
  /// campaigns use to checkpoint completed jobs crash-safely.
  using CompletionHook =
      std::function<void(std::size_t index, const JobResult& job)>;

  explicit BatchRunner(BatchOptions options = {});

  int jobs() const { return pool_.threads(); }

  /// Runs one spec serially — the unit the batch fans out.
  static SimResult RunOne(const RunSpec& spec);

  /// Runs all specs, returning results in spec order. A spec whose run
  /// throws yields a kInternal status for that slot only.
  std::vector<SimResult> Run(const std::vector<RunSpec>& specs);

  /// Generic escape hatch for jobs that are not plain spec runs: executes
  /// the tasks on the pool; a task that throws yields a SimResult whose
  /// status is Internal, and the rest of the batch is unaffected.
  std::vector<SimResult> RunTasks(
      const std::vector<std::function<SimResult()>>& tasks);

  /// Runs all specs under a robustness policy: per-attempt watchdogs
  /// (tick and wall-clock), bounded retry of transiently failing jobs,
  /// and graceful stop. Results come back in spec order regardless of
  /// stealing; `on_complete` (optional) fires once per non-skipped job.
  std::vector<JobResult> RunWithPolicy(
      const std::vector<RunSpec>& specs, const JobPolicy& policy,
      const CompletionHook& on_complete = nullptr);

  /// Same policy treatment for caller-supplied bodies (the campaign
  /// engine generates its workload inside the task). The task must poll
  /// JobContext::cancelled() at safe points if it can run long.
  std::vector<JobResult> RunTasksWithPolicy(
      const std::vector<PolicyTask>& tasks, const JobPolicy& policy,
      const CompletionHook& on_complete = nullptr);

  /// The underlying pool, for analysis-only fan-outs.
  ExecutorPool& pool() { return pool_; }

 private:
  /// Runs one task under the policy (watchdog + retries) and classifies
  /// the outcome.
  JobResult RunOnePolicy(const PolicyTask& task, const JobPolicy& policy);
  /// The watchdog monitor, started on first use.
  Watchdog& watchdog();

  ExecutorPool pool_;
  std::unique_ptr<Watchdog> watchdog_;  // lazy; guarded by watchdog_mu_
  std::mutex watchdog_mu_;
};

}  // namespace pcpda

#endif  // PCPDA_RUNNER_BATCH_RUNNER_H_
