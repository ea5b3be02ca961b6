// Tests for the parallel batch-execution engine: the work-stealing
// ExecutorPool (index coverage, reuse across many batches, exception
// determinism, edge cases) and the BatchRunner (parallel-vs-serial
// golden determinism across all 8 protocols — including under a fault
// plan — per-job failure isolation, seed derivation, per-job trace
// ring isolation under concurrency, worker exception safety, and the
// robustness policy: watchdog budgets, bounded retry, graceful stop).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "runner/batch_runner.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

std::string SourcePath(const char* relative) {
  return std::string(PCPDA_SOURCE_DIR "/") + relative;
}

Scenario LoadFaultyScenario() {
  auto scenario =
      LoadScenarioFile(SourcePath("scenarios/example3_faulty.scn"));
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

std::string RenderTick(Tick tick, const TickRecord& record) {
  std::string out = StrFormat(
      "t=%lld run=%lld spec=%d kind=%d ceil=%s",
      static_cast<long long>(tick),
      static_cast<long long>(record.running_job), record.running_spec,
      static_cast<int>(record.running_kind),
      record.ceiling.DebugString().c_str());
  for (const BlockedSample& blocked : record.blocked) {
    std::vector<std::string> ids;
    for (JobId id : blocked.blockers) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(id)));
    }
    out += StrFormat(" blocked{job=%lld item=d%d mode=%s reason=%s by=[%s]}",
                     static_cast<long long>(blocked.job), blocked.item,
                     ToString(blocked.mode), ToString(blocked.reason),
                     Join(ids, ",").c_str());
  }
  return out;
}

/// Every observable byte of one result: trace events, per-tick schedule,
/// metrics, history, audit verdict and the trace-ring drop counters.
std::string RenderResult(const TransactionSet& set,
                         const SimResult& result) {
  std::ostringstream out;
  out << "status: " << result.status.ToString() << "\n";
  out << "audit: " << result.audit.DebugString() << "\n";
  out << "dropped: " << result.trace.dropped_events() << "/"
      << result.trace.dropped_ticks() << "\n";
  out << "[metrics]\n" << result.metrics.DebugString(set) << "\n";
  out << "[events]\n" << result.trace.DebugString() << "\n";
  out << "[ticks]\n";
  for (const TickSpan& span : result.trace.spans()) {
    for (Tick t = span.begin; t < span.end; ++t) {
      out << RenderTick(t, span.record) << "\n";
    }
  }
  out << "[history]\n" << result.history.DebugString() << "\n";
  return out.str();
}

std::vector<RunSpec> AllProtocolSpecs(const Scenario& scenario,
                                      std::size_t max_trace_events = 0) {
  std::vector<RunSpec> specs;
  for (ProtocolKind kind : AllProtocolKinds()) {
    RunSpec spec;
    spec.scenario = &scenario;
    spec.protocol = kind;
    spec.options.audit = true;
    spec.options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    spec.options.max_trace_events = max_trace_events;
    specs.push_back(spec);
  }
  return specs;
}

// --- Seeding ---------------------------------------------------------------

TEST(SplitMixSeedTest, DeterministicAndIndexSensitive) {
  EXPECT_EQ(SplitMixSeed(1, 0), SplitMixSeed(1, 0));
  std::set<std::uint64_t> seen;
  for (std::uint64_t index = 0; index < 100; ++index) {
    seen.insert(SplitMixSeed(42, index));
  }
  EXPECT_EQ(seen.size(), 100u) << "stream collision within one base";
  EXPECT_NE(SplitMixSeed(1, 7), SplitMixSeed(2, 7));
}

// --- ExecutorPool ----------------------------------------------------------

TEST(ExecutorPoolTest, RunsEveryIndexExactlyOnce) {
  ExecutorPool pool(8);
  constexpr std::size_t kTasks = 1000;
  std::vector<std::atomic<int>> hits(kTasks);
  pool.ParallelFor(kTasks, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecutorPoolTest, ZeroTasksIsANoOp) {
  ExecutorPool pool(4);
  pool.ParallelFor(0, [](std::size_t) { FAIL() << "body ran for n=0"; });
}

TEST(ExecutorPoolTest, MoreExecutorsThanTasks) {
  ExecutorPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.ParallelFor(3, [&](std::size_t i) { ++hits[i]; });
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ExecutorPoolTest, SingleExecutorRunsInline) {
  ExecutorPool pool(1);
  EXPECT_EQ(pool.threads(), 1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(4);
  pool.ParallelFor(4, [&](std::size_t i) {
    ran[i] = std::this_thread::get_id();
  });
  for (const std::thread::id& id : ran) EXPECT_EQ(id, caller);
}

TEST(ExecutorPoolTest, ClampsNonPositiveThreadCounts) {
  ExecutorPool pool(0);
  EXPECT_EQ(pool.threads(), 1);
  ExecutorPool negative(-3);
  EXPECT_EQ(negative.threads(), 1);
}

TEST(ExecutorPoolTest, ReusableAcrossManyBatches) {
  ExecutorPool pool(4);
  for (int batch = 0; batch < 200; ++batch) {
    std::atomic<int> sum{0};
    pool.ParallelFor(5, [&](std::size_t i) {
      sum += static_cast<int>(i) + 1;
    });
    ASSERT_EQ(sum.load(), 15) << "batch " << batch;
  }
}

TEST(ExecutorPoolTest, LowestIndexExceptionWinsAndBatchDrains) {
  ExecutorPool pool(4);
  constexpr std::size_t kTasks = 64;
  std::vector<std::atomic<int>> hits(kTasks);
  try {
    pool.ParallelFor(kTasks, [&](std::size_t i) {
      ++hits[i];
      if (i == 9 || i == 41) {
        throw std::runtime_error(StrFormat("task %zu failed", i));
      }
    });
    FAIL() << "exception was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 9 failed");
  }
  // Failures never cancel the rest of the batch.
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

// --- BatchRunner: golden parallel-vs-serial determinism --------------------

TEST(BatchRunnerTest, ParallelMatchesSerialByteForByteUnderFaultPlan) {
  const Scenario scenario = LoadFaultyScenario();
  ASSERT_TRUE(scenario.faults.enabled())
      << "scenario lost its fault plan; the golden check must cover "
         "seeded fault streams";
  const std::vector<RunSpec> specs = AllProtocolSpecs(scenario);

  BatchRunner serial(BatchOptions{1});
  BatchRunner parallel(BatchOptions{8});
  const std::vector<SimResult> a = serial.Run(specs);
  const std::vector<SimResult> b = parallel.Run(specs);
  ASSERT_EQ(a.size(), specs.size());
  ASSERT_EQ(b.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(RenderResult(scenario.set, a[i]),
              RenderResult(scenario.set, b[i]))
        << "jobs=8 diverged from jobs=1 under "
        << ToString(specs[i].protocol);
  }
}

TEST(BatchRunnerTest, RepeatedParallelBatchesAreIdentical) {
  const Scenario scenario = LoadFaultyScenario();
  const std::vector<RunSpec> specs = AllProtocolSpecs(scenario);
  BatchRunner runner(BatchOptions{8});
  const std::vector<SimResult> first = runner.Run(specs);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const std::vector<SimResult> again = runner.Run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ASSERT_EQ(RenderResult(scenario.set, first[i]),
                RenderResult(scenario.set, again[i]))
          << "repeat " << repeat << " protocol "
          << ToString(specs[i].protocol);
    }
  }
}

TEST(BatchRunnerTest, SeedOverrideReplacesFaultStream) {
  const Scenario scenario = LoadFaultyScenario();
  RunSpec spec;
  spec.scenario = &scenario;
  spec.protocol = ProtocolKind::kPcpDa;

  // seed=0 keeps the scenario's own fault stream.
  const SimResult base = BatchRunner::RunOne(spec);
  const SimResult base_again = BatchRunner::RunOne(spec);
  EXPECT_EQ(RenderResult(scenario.set, base),
            RenderResult(scenario.set, base_again));

  // A derived per-job seed is reproducible and independent of the base
  // stream (the injected-fault schedule differs).
  RunSpec seeded = spec;
  seeded.seed = SplitMixSeed(99, 0);
  const SimResult derived = BatchRunner::RunOne(seeded);
  const SimResult derived_again = BatchRunner::RunOne(seeded);
  EXPECT_EQ(RenderResult(scenario.set, derived),
            RenderResult(scenario.set, derived_again));
  EXPECT_NE(RenderResult(scenario.set, base),
            RenderResult(scenario.set, derived))
      << "fault-seed override had no observable effect";
}

// --- BatchRunner: failure isolation ----------------------------------------

TEST(BatchRunnerTest, NullScenarioFailsThatJobOnly) {
  const Scenario scenario = LoadFaultyScenario();
  std::vector<RunSpec> specs = AllProtocolSpecs(scenario);
  specs[3].scenario = nullptr;

  BatchRunner runner(BatchOptions{8});
  const std::vector<SimResult> results = runner.Run(specs);
  ASSERT_EQ(results.size(), specs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 3) {
      EXPECT_FALSE(results[i].status.ok());
      continue;
    }
    EXPECT_TRUE(results[i].status.ok())
        << i << ": " << results[i].status.ToString();
  }
}

TEST(BatchRunnerTest, ThrowingTaskBecomesInternalStatusWithoutPoisoning) {
  BatchRunner runner(BatchOptions{4});
  std::vector<std::function<SimResult()>> tasks;
  for (int i = 0; i < 6; ++i) {
    if (i == 2) {
      tasks.push_back([]() -> SimResult {
        throw std::runtime_error("injected task failure");
      });
    } else {
      tasks.push_back([] { return SimResult{}; });
    }
  }
  const std::vector<SimResult> results = runner.RunTasks(tasks);
  ASSERT_EQ(results.size(), tasks.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (i == 2) {
      EXPECT_FALSE(results[i].status.ok());
      EXPECT_NE(results[i].status.ToString().find("injected task failure"),
                std::string::npos)
          << results[i].status.ToString();
    } else {
      EXPECT_TRUE(results[i].status.ok());
    }
  }
}

TEST(BatchRunnerTest, EmptyBatchReturnsEmptyResults) {
  BatchRunner runner(BatchOptions{4});
  EXPECT_TRUE(runner.Run({}).empty());
  EXPECT_TRUE(runner.RunTasks({}).empty());
}

// --- BatchRunner: worker exception safety ----------------------------------
// Regression: an exception thrown on a pool worker used to be rethrown
// out of ParallelFor by the pool itself; GuardedCall now captures it at
// the job boundary, so the batch returns normally and the pool (and its
// worker threads) stay usable for later batches.

TEST(BatchRunnerTest, WorkerExceptionsLeaveThePoolReusable) {
  BatchRunner runner(BatchOptions{4});
  std::vector<std::function<SimResult()>> poisoned;
  for (int i = 0; i < 16; ++i) {
    poisoned.push_back([i]() -> SimResult {
      throw std::runtime_error(StrFormat("poisoned task %d", i));
    });
  }
  for (int batch = 0; batch < 3; ++batch) {
    const std::vector<SimResult> results = runner.RunTasks(poisoned);
    ASSERT_EQ(results.size(), poisoned.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
      EXPECT_EQ(results[i].status.code(), StatusCode::kInternal)
          << "batch " << batch << " task " << i;
    }
  }
  // The pool survived 48 captured exceptions; a clean batch still runs.
  const Scenario scenario = LoadFaultyScenario();
  const std::vector<SimResult> clean =
      runner.Run(AllProtocolSpecs(scenario));
  for (const SimResult& result : clean) {
    EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  }
}

TEST(BatchRunnerTest, NonStdExceptionIsCapturedToo) {
  BatchRunner runner(BatchOptions{2});
  const std::vector<SimResult> results =
      runner.RunTasks({[]() -> SimResult { throw 42; }});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status.code(), StatusCode::kInternal);
}

// --- BatchRunner: robustness policy ----------------------------------------

TEST(BatchRunnerPolicyTest, TickBudgetTimesOutDeterministically) {
  const Scenario scenario = LoadFaultyScenario();
  RunSpec spec;
  spec.scenario = &scenario;
  spec.protocol = ProtocolKind::kPcpDa;
  JobPolicy policy;
  policy.max_sim_ticks = 10;  // far below the scenario's horizon
  policy.max_retries = 3;

  BatchRunner runner(BatchOptions{2});
  const std::vector<JobResult> results =
      runner.RunWithPolicy({spec, spec}, policy);
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& job : results) {
    EXPECT_EQ(job.outcome, JobOutcome::kTimeout);
    EXPECT_EQ(job.attempts, 1)
        << "a tick-budget timeout is deterministic; retrying it would "
           "burn the same budget again";
    EXPECT_EQ(job.result.status.code(), StatusCode::kDeadlineExceeded);
  }
}

TEST(BatchRunnerPolicyTest, TransientFailureIsRetriedAndReclassified) {
  BatchRunner runner(BatchOptions{2});
  JobPolicy policy;
  policy.max_retries = 2;
  const std::vector<BatchRunner::PolicyTask> tasks = {
      // Fails once, then passes: reclassified as OK with attempts == 2.
      [](const JobContext& context) -> SimResult {
        if (context.attempt == 0) throw std::runtime_error("flake");
        return SimResult{};
      },
      // Fails every attempt: retries exhaust, reported as the same
      // failure it would have been without retry.
      [](const JobContext&) -> SimResult {
        throw std::runtime_error("deterministic crash");
      },
      // Non-Internal failures are deterministic by contract — no retry.
      [](const JobContext&) {
        SimResult result;
        result.status = Status::InvalidArgument("bad config");
        return result;
      }};
  const std::vector<JobResult> results =
      runner.RunTasksWithPolicy(tasks, policy);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].outcome, JobOutcome::kOk);
  EXPECT_EQ(results[0].attempts, 2);
  EXPECT_EQ(results[1].outcome, JobOutcome::kFailed);
  EXPECT_EQ(results[1].attempts, 3);
  EXPECT_EQ(results[1].result.status.code(), StatusCode::kInternal);
  EXPECT_EQ(results[2].outcome, JobOutcome::kFailed);
  EXPECT_EQ(results[2].attempts, 1);
}

TEST(BatchRunnerPolicyTest, PreTrippedStopSkipsEveryJobAndMutesTheHook) {
  BatchRunner runner(BatchOptions{2});
  const std::atomic<bool> stop{true};
  JobPolicy policy;
  policy.stop = &stop;
  std::atomic<int> hook_calls{0};
  const std::vector<BatchRunner::PolicyTask> tasks(
      4, [](const JobContext&) -> SimResult {
        ADD_FAILURE() << "a skipped job must never run";
        return SimResult{};
      });
  const std::vector<JobResult> results = runner.RunTasksWithPolicy(
      tasks, policy,
      [&](std::size_t, const JobResult&) { ++hook_calls; });
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& job : results) {
    EXPECT_EQ(job.outcome, JobOutcome::kSkipped);
    EXPECT_EQ(job.attempts, 0);
  }
  EXPECT_EQ(hook_calls.load(), 0)
      << "skipped jobs must not reach the checkpoint hook";
}

TEST(BatchRunnerPolicyTest, WallBudgetCancelsASpinningTask) {
  BatchRunner runner(BatchOptions{2});
  JobPolicy policy;
  policy.wall_budget_ms = 100;
  policy.max_retries = 3;
  const std::vector<BatchRunner::PolicyTask> tasks = {
      [](const JobContext& context) -> SimResult {
        while (!context.cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        SimResult result;
        result.status = Status::DeadlineExceeded("noticed cancellation");
        return result;
      }};
  const std::vector<JobResult> results =
      runner.RunTasksWithPolicy(tasks, policy);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, JobOutcome::kTimeout);
  EXPECT_EQ(results[0].attempts, 1) << "timeouts are not retried";
}

TEST(BatchRunnerPolicyTest, CompletionHookFiresOnceRecordedPerFinishedJob) {
  BatchRunner runner(BatchOptions{4});
  JobPolicy policy;
  std::vector<BatchRunner::PolicyTask> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back([](const JobContext&) { return SimResult{}; });
  }
  std::mutex mu;
  std::set<std::size_t> seen;
  const std::vector<JobResult> results = runner.RunTasksWithPolicy(
      tasks, policy, [&](std::size_t index, const JobResult& job) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(index).second)
            << "hook fired twice for job " << index;
        EXPECT_EQ(job.outcome, JobOutcome::kOk);
      });
  ASSERT_EQ(results.size(), tasks.size());
  EXPECT_EQ(seen.size(), tasks.size());
}

// --- Bounded trace ring under concurrency ----------------------------------
// Per-run trace buffers belong to their job alone: a batch of bounded
// rings must reproduce the serial runs' retained windows and dropped
// counters exactly, and the compaction path must actually fire.

TEST(BatchRunnerTest, TraceRingIsolationAndCountersInParallelBatch) {
  const Scenario scenario = LoadFaultyScenario();
  constexpr std::size_t kRing = 8;  // small enough to force compaction
  const std::vector<RunSpec> specs = AllProtocolSpecs(scenario, kRing);

  BatchRunner serial(BatchOptions{1});
  BatchRunner parallel(BatchOptions{8});
  const std::vector<SimResult> a = serial.Run(specs);
  const std::vector<SimResult> b = parallel.Run(specs);

  bool any_dropped = false;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    // The ring stayed bounded and its drop accounting is consistent.
    EXPECT_LE(b[i].trace.events().size(), 2 * kRing);
    EXPECT_EQ(b[i].trace.dropped_events(), a[i].trace.dropped_events())
        << ToString(specs[i].protocol);
    EXPECT_EQ(b[i].trace.dropped_ticks(), a[i].trace.dropped_ticks())
        << ToString(specs[i].protocol);
    any_dropped = any_dropped || b[i].trace.dropped_events() > 0;
    // No cross-run interleaving: the retained window is byte-identical
    // to the serial run's, event for event and tick for tick.
    EXPECT_EQ(RenderResult(scenario.set, a[i]),
              RenderResult(scenario.set, b[i]))
        << ToString(specs[i].protocol);
  }
  EXPECT_TRUE(any_dropped)
      << "ring never overflowed; the compaction path went unexercised";
}

}  // namespace
}  // namespace pcpda
