// Experiment E11 (extension): the Max_Sysceil push-down argument of
// Section 6 (the dotted lines of Figures 4-5), measured over random
// workloads — how high the system ceiling rises under PCP-DA vs RW-PCP,
// and what fraction of ticks any ceiling is raised at all.

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/rng.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

constexpr int kSets = 30;
constexpr Tick kHorizon = 2000;

struct CeilingStats {
  /// Mean over runs of the peak ceiling, normalized: 1.0 = the highest
  /// transaction priority, 0.0 = dummy (never raised).
  double mean_peak = 0;
  /// Mean fraction of ticks with a raised (non-dummy) ceiling.
  double raised_fraction = 0;
};

CeilingStats Measure(ProtocolKind kind, double utilization) {
  CeilingStats stats;
  int runs = 0;
  for (int trial = 0; trial < kSets; ++trial) {
    Rng rng(static_cast<std::uint64_t>(trial) * 6151 + 3);
    WorkloadParams params;
    params.total_utilization = utilization;
    auto set = GenerateWorkload(params, rng);
    if (!set.ok()) continue;
    const SimResult result = BenchRun(*set, kind, kHorizon);
    // Normalize the peak: priority level of spec 0 is the top.
    const int top = set->priority(0).level();
    const int bottom = set->priority(set->size() - 1).level();
    const Priority peak = result.metrics.max_ceiling;
    if (!peak.is_dummy() && top > bottom) {
      stats.mean_peak += static_cast<double>(peak.level() - bottom + 1) /
                         static_cast<double>(top - bottom + 1);
    }
    Tick raised = 0;
    for (const TickSpan& span : result.trace.spans()) {
      if (!span.record.ceiling.is_dummy()) raised += span.length();
    }
    stats.raised_fraction += static_cast<double>(raised) /
                             static_cast<double>(result.trace.tick_count());
    ++runs;
  }
  if (runs > 0) {
    stats.mean_peak /= runs;
    stats.raised_fraction /= runs;
  }
  return stats;
}

void PrintPushdown() {
  PrintHeader(
      "Max_Sysceil push-down (30 random sets per point; peak normalized "
      "to [0,1], 1 = highest transaction priority)");
  std::printf("%-8s %-8s %-12s %-14s\n", "proto", "U", "mean peak",
              "raised ticks");
  for (double u : {0.4, 0.6, 0.8}) {
    for (ProtocolKind kind :
         {ProtocolKind::kPcpDa, ProtocolKind::kRwPcp,
          ProtocolKind::kCcp, ProtocolKind::kOpcp}) {
      const CeilingStats stats = Measure(kind, u);
      std::printf("%-8s %-8.2f %-12.3f %-14.3f\n", ToString(kind), u,
                  stats.mean_peak, stats.raised_fraction);
    }
    std::printf("\n");
  }
  std::printf(
      "expected shape: PCP-DA raises ceilings on fewer ticks and to lower "
      "peaks than RW-PCP/PCP (write locks raise nothing), matching the "
      "dotted-line comparison of Figures 4-5.\n");
}

void BM_CeilingSample(benchmark::State& state) {
  Rng rng(5);
  WorkloadParams params;
  auto set = GenerateWorkload(params, rng);
  for (auto _ : state) {
    SimResult result = BenchRun(*set, ProtocolKind::kPcpDa, 500,
                                DeadlockPolicy::kHalt, /*record=*/true);
    benchmark::DoNotOptimize(result.metrics.max_ceiling.level());
  }
}
BENCHMARK(BM_CeilingSample);

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) {
  pcpda::PrintPushdown();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
