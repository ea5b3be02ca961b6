// Experiment E10 (extension): simulated behaviour of all six protocols on
// the same random workloads as utilization and write contention rise —
// deadline-miss ratio, effective blocking, blocking-episode breakdown
// (ceiling vs conflict), restarts and deadlocks. This is the
// dynamic counterpart of the paper's static Section-9 comparison.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

constexpr int kSetsPerPoint = 30;
constexpr Tick kHorizon = 3000;

struct Aggregate {
  double miss_ratio = 0;
  double blocking_ticks = 0;
  double ceiling_blocks = 0;
  double conflict_blocks = 0;
  double restarts = 0;
  double deadlocks = 0;
};

/// The trial workloads of one (utilization, write-fraction) design point.
/// Seeds depend only on the trial index, so the grid is reproducible and
/// every protocol sees identical sets.
std::vector<Scenario> PointScenarios(double utilization,
                                     double write_fraction) {
  std::vector<Scenario> scenarios;
  for (int trial = 0; trial < kSetsPerPoint; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 104729 + 7);
    WorkloadParams params;
    params.total_utilization = utilization;
    params.write_fraction = write_fraction;
    auto set = GenerateWorkload(params, rng);
    if (!set.ok()) continue;
    scenarios.push_back(Scenario{StrFormat("sweep_t%d", trial),
                                 std::move(set).value(), kHorizon,
                                 {},
                                 {},
                                 {},
                                 {}});
  }
  return scenarios;
}

/// All protocols of one design point as a single batch; aggregates are
/// reduced in trial order, so they match the old serial loop exactly.
std::vector<Aggregate> RunPointGrid(BatchRunner& runner, double utilization,
                                    double write_fraction) {
  const std::vector<Scenario> scenarios =
      PointScenarios(utilization, write_fraction);
  const std::vector<ProtocolKind> kinds = AllProtocolKinds();
  SimulatorOptions options;
  options.horizon = kHorizon;
  options.record_trace = false;
  options.record_history = false;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  const std::vector<SimResult> results =
      RunGrid(runner, scenarios, kinds, options);

  std::vector<Aggregate> aggregates(kinds.size());
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    Aggregate& aggregate = aggregates[k];
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
      const SimResult& result = results[k * scenarios.size() + s];
      aggregate.miss_ratio += result.metrics.MissRatio();
      for (const auto& m : result.metrics.per_spec) {
        aggregate.blocking_ticks +=
            static_cast<double>(m.effective_blocking_ticks);
        aggregate.ceiling_blocks += static_cast<double>(m.ceiling_blocks);
        aggregate.conflict_blocks +=
            static_cast<double>(m.conflict_blocks);
        aggregate.restarts += static_cast<double>(m.restarts);
      }
      aggregate.deadlocks +=
          static_cast<double>(result.metrics.deadlocks);
    }
    const int runs = static_cast<int>(scenarios.size());
    if (runs > 0) {
      aggregate.miss_ratio /= runs;
      aggregate.blocking_ticks /= runs;
      aggregate.ceiling_blocks /= runs;
      aggregate.conflict_blocks /= runs;
      aggregate.restarts /= runs;
      aggregate.deadlocks /= runs;
    }
  }
  return aggregates;
}

void PrintSweep() {
  BatchRunner runner(BatchOptions{BenchJobs()});
  PrintHeader(StrFormat(
      "Simulated sweep: 30 random sets per point, horizon 3000 ticks, "
      "write fraction 0.3 (deadlocks resolved by aborting; jobs=%d)",
      runner.jobs()));
  std::printf("%-8s %-8s %-8s %-10s %-9s %-9s %-9s %-9s\n", "proto", "U",
              "miss", "blockticks", "ceilblk", "confblk", "restarts",
              "deadlock");
  for (double u : {0.4, 0.6, 0.8}) {
    const std::vector<Aggregate> aggregates = RunPointGrid(runner, u, 0.3);
    const std::vector<ProtocolKind> kinds = AllProtocolKinds();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const Aggregate& a = aggregates[k];
      std::printf("%-8s %-8.2f %-8.4f %-10.1f %-9.1f %-9.1f %-9.1f %-9.2f\n",
                  ToString(kinds[k]), u, a.miss_ratio, a.blocking_ticks,
                  a.ceiling_blocks, a.conflict_blocks, a.restarts,
                  a.deadlocks);
    }
    std::printf("\n");
  }
  PrintHeader("Write-contention sweep at U=0.7");
  std::printf("%-8s %-8s %-8s %-10s %-9s %-9s %-9s %-9s\n", "proto", "wf",
              "miss", "blockticks", "ceilblk", "confblk", "restarts",
              "deadlock");
  for (double wf : {0.1, 0.3, 0.6}) {
    const std::vector<Aggregate> aggregates =
        RunPointGrid(runner, 0.7, wf);
    const std::vector<ProtocolKind> kinds = AllProtocolKinds();
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const Aggregate& a = aggregates[k];
      std::printf("%-8s %-8.2f %-8.4f %-10.1f %-9.1f %-9.1f %-9.1f %-9.2f\n",
                  ToString(kinds[k]), wf, a.miss_ratio, a.blocking_ticks,
                  a.ceiling_blocks, a.conflict_blocks, a.restarts,
                  a.deadlocks);
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape: PCP-DA shows the least blocking and fewest misses "
      "among the ceiling protocols; 2PL-HP trades blocking for restarts; "
      "2PL-PI is the only protocol that deadlocks.\n");
}

void BM_SimulatedRun(benchmark::State& state) {
  Rng rng(3);
  WorkloadParams params;
  params.total_utilization = 0.6;
  auto set = GenerateWorkload(params, rng);
  const CompiledPlan plan =
      CompiledPlan::Compile("sweep", *set, kHorizon, {.lint = false})
          .value();
  const auto kind = static_cast<ProtocolKind>(state.range(0));
  for (auto _ : state) {
    auto protocol = MakeProtocol(kind);
    SimulatorOptions options;
    options.horizon = kHorizon;
    options.record_trace = false;
    options.record_history = false;
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    Simulator sim(plan, protocol.get(), options);
    SimResult result = sim.Run();
    benchmark::DoNotOptimize(result.metrics.TotalCommitted());
  }
  state.SetItemsProcessed(state.iterations() * kHorizon);
}
BENCHMARK(BM_SimulatedRun)
    ->Arg(static_cast<int>(ProtocolKind::kPcpDa))
    ->Arg(static_cast<int>(ProtocolKind::kRwPcp))
    ->Arg(static_cast<int>(ProtocolKind::kTwoPlHp));

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) {
  pcpda::PrintSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
