// Concurrency stress for the runner subsystem, built to run under the
// tsan preset (PCPDA_SANITIZE=thread). Three hammers:
//
//   1. The pool itself: thousands of small batches through one pool so
//      the epoch handoff, work-stealing deques and teardown wait are
//      exercised far past what the unit tests reach.
//   2. Whole simulations in parallel: batches of seeded fault-plan runs,
//      checked against a serial reference — any shared mutable state on
//      the simulate path shows up as a tsan race or a digest mismatch.
//   3. The audited "pure" entry points — MakeProtocol/ComputeBlocking/
//      ParseScenario — called concurrently from every executor. The
//      thread-safety audit found no mutable statics behind them; this
//      pins that audit so a future lazily-initialized cache cannot land
//      without tripping tsan here.
//
// Registered as the `runner-stress` ctest target (plain add_test so the
// name is stable for scripts and CI invocations).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "analysis/blocking.h"
#include "common/rng.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "runner/batch_runner.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

constexpr char kScenarioText[] = R"(scenario stress
horizon 24
priority as-listed
item x
item y

txn T1 period=5 offset=1
  read x
  read y
end
txn T2 offset=0
  write x
  compute 2
  write y
  compute 1
end

faults seed=7
  abort T2 at=3
  overrun T1 by=1 prob=0.10
end
)";

Scenario LoadStressScenario() {
  auto scenario = ParseScenario(kScenarioText);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

TEST(RunnerStressTest, ManySmallBatches) {
  ExecutorPool pool(8);
  std::atomic<long long> total{0};
  long long expected = 0;
  for (int batch = 0; batch < 3000; ++batch) {
    const std::size_t n = static_cast<std::size_t>(batch % 17);
    expected += static_cast<long long>(n);
    pool.ParallelFor(n, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), expected);
}

TEST(RunnerStressTest, InterleavedPoolsAndBatchSizes) {
  // Two pools alive at once, batches alternating between them, with
  // sizes straddling the executor count so both the inline-serial and
  // stealing paths run.
  ExecutorPool a(2);
  ExecutorPool b(6);
  std::atomic<long long> total{0};
  for (int round = 0; round < 500; ++round) {
    a.ParallelFor(1, [&](std::size_t) { ++total; });
    b.ParallelFor(13, [&](std::size_t) { ++total; });
    a.ParallelFor(64, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 500LL * (1 + 13 + 64));
}

TEST(RunnerStressTest, ParallelSimulationsMatchSerialReference) {
  const Scenario scenario = LoadStressScenario();
  const std::vector<ProtocolKind> kinds = AllProtocolKinds();

  // 8 protocols x 8 distinct derived fault seeds = 64 concurrent runs.
  std::vector<RunSpec> specs;
  for (ProtocolKind kind : kinds) {
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      RunSpec spec;
      spec.scenario = &scenario;
      spec.protocol = kind;
      spec.seed = SplitMixSeed(11, stream);
      spec.options.audit = true;
      spec.options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
      specs.push_back(spec);
    }
  }

  BatchRunner serial(BatchOptions{1});
  const std::vector<SimResult> want = serial.Run(specs);
  BatchRunner parallel(BatchOptions{8});
  for (int repeat = 0; repeat < 20; ++repeat) {
    const std::vector<SimResult> got = parallel.Run(specs);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].status.ToString(), want[i].status.ToString());
      ASSERT_EQ(got[i].metrics.DebugString(scenario.set),
                want[i].metrics.DebugString(scenario.set))
          << "repeat " << repeat << " spec " << i;
      ASSERT_EQ(got[i].trace.DebugString(), want[i].trace.DebugString())
          << "repeat " << repeat << " spec " << i;
      ASSERT_EQ(got[i].history.DebugString(), want[i].history.DebugString())
          << "repeat " << repeat << " spec " << i;
      ASSERT_TRUE(got[i].audit.ok()) << got[i].audit.DebugString();
    }
  }
}

TEST(RunnerStressTest, SharedCompiledPlanAcrossConcurrentRuns) {
  // One immutable CompiledPlan shared by 64 concurrent simulations: the
  // plan's ceilings and calendar are read-only after Compile, so any
  // write to them from the simulate path is a tsan race here, and any
  // behavioral divergence is a digest mismatch against the serial
  // reference, whose null-plan specs compile a fresh plan per run.
  const Scenario scenario = LoadStressScenario();
  CompileOptions compile_options;
  compile_options.lint = false;
  auto compiled = CompiledPlan::Compile(scenario, compile_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  const std::vector<ProtocolKind> kinds = AllProtocolKinds();
  std::vector<RunSpec> fresh;
  std::vector<RunSpec> planned;
  for (ProtocolKind kind : kinds) {
    for (std::uint64_t stream = 0; stream < 8; ++stream) {
      RunSpec spec;
      spec.scenario = &scenario;
      spec.protocol = kind;
      spec.seed = SplitMixSeed(13, stream);
      spec.options.audit = true;
      spec.options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
      fresh.push_back(spec);
      spec.plan = &compiled.value();
      planned.push_back(spec);
    }
  }

  BatchRunner serial(BatchOptions{1});
  const std::vector<SimResult> want = serial.Run(fresh);
  BatchRunner parallel(BatchOptions{8});
  for (int repeat = 0; repeat < 10; ++repeat) {
    const std::vector<SimResult> got = parallel.Run(planned);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].status.ToString(), want[i].status.ToString());
      ASSERT_EQ(got[i].metrics.DebugString(scenario.set),
                want[i].metrics.DebugString(scenario.set))
          << "repeat " << repeat << " spec " << i;
      ASSERT_EQ(got[i].trace.DebugString(), want[i].trace.DebugString())
          << "repeat " << repeat << " spec " << i;
      ASSERT_EQ(got[i].history.DebugString(), want[i].history.DebugString())
          << "repeat " << repeat << " spec " << i;
      ASSERT_TRUE(got[i].audit.ok()) << got[i].audit.DebugString();
    }
  }
}

TEST(RunnerStressTest, FactoryAnalysisAndParserAreThreadSafe) {
  const Scenario scenario = LoadStressScenario();
  const std::vector<ProtocolKind> kinds = AllProtocolKinds();
  const std::vector<ProtocolKind> analyzable = {
      ProtocolKind::kPcpDa, ProtocolKind::kRwPcp, ProtocolKind::kCcp,
      ProtocolKind::kOpcp};

  ExecutorPool pool(8);
  std::atomic<int> failures{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(64, [&](std::size_t i) {
      // Factory: every construction path, concurrently.
      auto protocol = MakeProtocol(kinds[i % kinds.size()]);
      if (protocol == nullptr) ++failures;
      // Static analysis over a shared const TransactionSet.
      const BlockingAnalysis blocking = ComputeBlocking(
          scenario.set, analyzable[i % analyzable.size()]);
      if (blocking.AllB().size() !=
          static_cast<std::size_t>(scenario.set.size())) {
        ++failures;
      }
      // Parser: full text -> Scenario on every executor at once.
      auto parsed = ParseScenario(kScenarioText);
      if (!parsed.ok() || parsed.value().set.size() != 2) {
        ++failures;
      }
    });
  }
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace pcpda
