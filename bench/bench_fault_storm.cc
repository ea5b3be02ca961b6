// Experiment E14 (robustness): a fault storm over every protocol with the
// per-tick invariant auditor enabled. Random workloads are run at several
// fault rates (probabilistic aborts, spurious in-CS restarts, WCET
// overruns, release jitter); for each protocol we report the injected
// fault mix, audit verdict and serializability of the surviving history.
//
// Expected shape: zero invariant violations everywhere — in particular for
// the ceiling protocols, whose Theorems 1-3 the auditor recomputes each
// tick — and serializable histories for every run that the abort/restart
// machinery touched.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "history/serialization_graph.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

constexpr int kRunsPerCell = 8;
constexpr Tick kHorizon = 3000;
constexpr double kRates[] = {0.0, 0.02, 0.1};

struct StormStats {
  long long injected = 0;
  long long skipped = 0;
  long long restarts = 0;
  long long committed = 0;
  long long violations = 0;
  int non_serializable_runs = 0;
  Tick ticks_audited = 0;
};

FaultConfig StormConfig(double rate, std::uint64_t seed) {
  FaultConfig config;
  config.seed = seed;
  if (rate <= 0.0) return config;
  FaultSpec abort;
  abort.kind = FaultKind::kAbort;
  abort.probability = rate;
  config.faults.push_back(abort);
  FaultSpec restart;
  restart.kind = FaultKind::kRestartInCs;
  restart.probability = rate;
  config.faults.push_back(restart);
  FaultSpec overrun;
  overrun.kind = FaultKind::kOverrun;
  overrun.probability = rate;
  overrun.extra = 3;
  config.faults.push_back(overrun);
  FaultSpec delay;
  delay.kind = FaultKind::kDelayArrival;
  delay.probability = rate;
  delay.extra = 5;
  config.faults.push_back(delay);
  return config;
}

StormStats Measure(ProtocolKind kind, double rate) {
  StormStats stats;
  for (int trial = 0; trial < kRunsPerCell; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 6364136223846793005ULL + 7);
    WorkloadParams params;
    params.num_transactions = 8;
    params.num_items = 12;
    params.total_utilization = 0.65;
    params.write_fraction = 0.4;
    auto set = GenerateWorkload(params, rng);
    if (!set.ok()) continue;
    auto protocol = MakeProtocol(kind);
    SimulatorOptions options;
    options.horizon = kHorizon;
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    options.audit = true;
    options.faults =
        StormConfig(rate, static_cast<std::uint64_t>(trial) + 1);
    Simulator sim(
        CompiledPlan::Compile("storm", *set, kHorizon, {.lint = false})
            .value(),
        protocol.get(), options);
    const SimResult result = sim.Run();
    stats.injected += result.metrics.faults.TotalInjected();
    stats.skipped += result.metrics.faults.skipped_aborts;
    stats.restarts += result.metrics.TotalRestarts();
    stats.committed += result.metrics.TotalCommitted();
    stats.violations +=
        static_cast<long long>(result.audit.violations.size()) +
        result.audit.suppressed;
    stats.ticks_audited += result.audit.ticks_audited;
    if (!IsSerializable(result.history)) ++stats.non_serializable_runs;
  }
  return stats;
}

void PrintStorm() {
  PrintHeader(
      "Fault storm x invariant audit (8 random sets per cell, horizon "
      "3000, deadlocks resolved by aborting; every tick audited)");
  std::printf("%-9s %6s | %9s %8s %9s %10s %11s %7s\n", "protocol",
              "rate", "injected", "skipped", "restarts", "committed",
              "violations", "nonSR");
  bool clean = true;
  for (ProtocolKind kind : AllProtocolKinds()) {
    for (double rate : kRates) {
      const StormStats stats = Measure(kind, rate);
      std::printf("%-9s %6.2f | %9lld %8lld %9lld %10lld %11lld %7d\n",
                  ToString(kind), rate, stats.injected, stats.skipped,
                  stats.restarts, stats.committed, stats.violations,
                  stats.non_serializable_runs);
      if (stats.violations > 0 || stats.non_serializable_runs > 0) {
        clean = false;
      }
    }
    std::printf("\n");
  }
  std::printf("verdict: %s\n",
              clean ? "clean — no invariant violations, all histories "
                      "serializable"
                    : "VIOLATIONS FOUND — see the counts above");
}

void BM_FaultStormPoint(benchmark::State& state) {
  const double rate = static_cast<double>(state.range(0)) / 100.0;
  for (auto _ : state) {
    const StormStats stats = Measure(ProtocolKind::kPcpDa, rate);
    benchmark::DoNotOptimize(stats.violations);
  }
}
BENCHMARK(BM_FaultStormPoint)->Arg(0)->Arg(10)->Unit(
    benchmark::kMillisecond);

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) {
  pcpda::PrintStorm();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
