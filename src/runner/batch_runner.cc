#include "runner/batch_runner.h"

#include <chrono>
#include <exception>
#include <memory>
#include <string>

namespace pcpda {
namespace {

/// Invokes `body`, converting any escaping exception into a failed
/// SimResult so one poisoned job cannot take down its batch.
SimResult GuardedCall(const std::function<SimResult()>& body) {
  try {
    return body();
  } catch (const std::exception& e) {
    SimResult result;
    result.status =
        Status::Internal(std::string("job body threw: ") + e.what());
    return result;
  } catch (...) {
    SimResult result;
    result.status = Status::Internal("job body threw a non-std exception");
    return result;
  }
}

bool StopRequested(const JobPolicy& policy) {
  for (const std::atomic<bool>* stop : {policy.stop, policy.also_stop}) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const char* ToString(JobOutcome outcome) {
  switch (outcome) {
    case JobOutcome::kOk:
      return "ok";
    case JobOutcome::kFailed:
      return "failed";
    case JobOutcome::kTimeout:
      return "timeout";
    case JobOutcome::kCancelled:
      return "cancelled";
    case JobOutcome::kSkipped:
      return "skipped";
  }
  return "unknown";
}

BatchRunner::BatchRunner(BatchOptions options) : pool_(options.jobs) {}

SimResult BatchRunner::RunOne(const RunSpec& spec) {
  SimResult result;
  if (spec.scenario == nullptr) {
    result.status = Status::InvalidArgument("RunSpec.scenario is null");
    return result;
  }
  SimulatorOptions options = spec.options;
  if (options.horizon <= 0) options.horizon = spec.scenario->horizon;
  if (!options.faults.enabled()) options.faults = spec.scenario->faults;
  if (spec.seed != 0) options.faults.seed = spec.seed;
  std::unique_ptr<Protocol> protocol =
      spec.protocol == ProtocolKind::kPcpDa
          ? std::make_unique<PcpDa>(spec.pcp_da)
          : MakeProtocol(spec.protocol);
  if (spec.plan != nullptr) {
    Simulator simulator(*spec.plan, protocol.get(), options);
    return simulator.Run();
  }
  Simulator simulator(
      CompiledPlan::Compile(*spec.scenario, {.lint = false}).value(),
      protocol.get(), options);
  return simulator.Run();
}

std::vector<SimResult> BatchRunner::Run(const std::vector<RunSpec>& specs) {
  std::vector<SimResult> results(specs.size());
  pool_.ParallelFor(specs.size(), [&](std::size_t i) {
    results[i] = GuardedCall([&] { return RunOne(specs[i]); });
  });
  return results;
}

std::vector<SimResult> BatchRunner::RunTasks(
    const std::vector<std::function<SimResult()>>& tasks) {
  std::vector<SimResult> results(tasks.size());
  pool_.ParallelFor(tasks.size(), [&](std::size_t i) {
    results[i] = GuardedCall(tasks[i]);
  });
  return results;
}

Watchdog& BatchRunner::watchdog() {
  std::lock_guard<std::mutex> lock(watchdog_mu_);
  if (watchdog_ == nullptr) watchdog_ = std::make_unique<Watchdog>();
  return *watchdog_;
}

JobResult BatchRunner::RunOnePolicy(const PolicyTask& task,
                                    const JobPolicy& policy) {
  JobResult job;
  const bool needs_watchdog = policy.wall_budget_ms > 0 ||
                              policy.stop != nullptr ||
                              policy.also_stop != nullptr;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    if (StopRequested(policy)) {
      // Not started (or not re-tried): resume re-runs it from scratch.
      if (job.attempts == 0) job.outcome = JobOutcome::kSkipped;
      return job;
    }
    std::atomic<bool> cancel{false};
    std::uint64_t ticket = 0;
    if (needs_watchdog) {
      ticket = watchdog().Arm(
          &cancel, std::chrono::milliseconds(policy.wall_budget_ms));
    }
    JobContext context;
    context.attempt = attempt;
    context.cancel = &cancel;
    job.result = GuardedCall([&] { return task(context); });
    ++job.attempts;
    if (needs_watchdog) watchdog().Disarm(ticket);

    if (cancel.load(std::memory_order_relaxed)) {
      // The flag fired either because the stop source tripped (abandon,
      // re-run on resume) or because the wall budget ran out (timeout).
      job.outcome = StopRequested(policy) ? JobOutcome::kCancelled
                                          : JobOutcome::kTimeout;
      if (job.result.status.ok()) {
        job.result.status = Status::DeadlineExceeded(
            job.outcome == JobOutcome::kTimeout
                ? "wall-clock watchdog budget exhausted"
                : "cancelled by stop request");
      }
      return job;
    }
    if (job.result.status.ok()) {
      job.outcome = JobOutcome::kOk;
      return job;
    }
    if (job.result.status.code() == StatusCode::kDeadlineExceeded) {
      // The deterministic tick budget tripped inside the simulator;
      // retrying would burn the same budget again.
      job.outcome = JobOutcome::kTimeout;
      return job;
    }
    job.outcome = JobOutcome::kFailed;
    // Only captured exceptions are plausibly transient (allocation
    // failure, resource exhaustion); config rejections and audit
    // verdicts are deterministic and not worth re-running.
    if (job.result.status.code() != StatusCode::kInternal) return job;
  }
  return job;
}

std::vector<JobResult> BatchRunner::RunWithPolicy(
    const std::vector<RunSpec>& specs, const JobPolicy& policy,
    const CompletionHook& on_complete) {
  std::vector<PolicyTask> tasks;
  tasks.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    tasks.push_back([&spec, &policy](const JobContext& context) {
      RunSpec attempt = spec;
      attempt.options.cancel = context.cancel;
      if (policy.max_sim_ticks > 0) {
        attempt.options.max_sim_ticks = policy.max_sim_ticks;
      }
      return RunOne(attempt);
    });
  }
  return RunTasksWithPolicy(tasks, policy, on_complete);
}

std::vector<JobResult> BatchRunner::RunTasksWithPolicy(
    const std::vector<PolicyTask>& tasks, const JobPolicy& policy,
    const CompletionHook& on_complete) {
  std::vector<JobResult> results(tasks.size());
  // One stop source per batch; concurrent batches with different stop
  // flags on the same runner are not supported.
  if (policy.wall_budget_ms > 0 || policy.stop != nullptr ||
      policy.also_stop != nullptr) {
    watchdog().SetStopSources(policy.stop, policy.also_stop);
  }
  pool_.ParallelFor(tasks.size(), [&](std::size_t i) {
    results[i] = RunOnePolicy(tasks[i], policy);
    if (on_complete && results[i].outcome != JobOutcome::kSkipped &&
        results[i].outcome != JobOutcome::kCancelled) {
      on_complete(i, results[i]);
    }
  });
  return results;
}

}  // namespace pcpda
