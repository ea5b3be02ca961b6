// Experiment E8 — Example 5 of the paper: the naive "condition (2)"
// protocol (LC3/LC4 without the T*-WriteSet guard) deadlocks on crossed
// read/write access; full PCP-DA blocks T_H once instead. 2PL-PI shown
// for contrast (it deadlocks too).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/pcp_da.h"

namespace pcpda {
namespace {

SimResult RunProtocol(const TransactionSet& set, Protocol* protocol,
                      Tick horizon, DeadlockPolicy policy) {
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = policy;
  Simulator sim(
      CompiledPlan::Compile("example5", set, horizon, {.lint = false})
          .value(),
      protocol, options);
  return sim.Run();
}

void PrintExample5() {
  const PaperExample example = Example5();

  {
    PcpDa full;
    const SimResult result = RunProtocol(example.set, &full,
                                         example.horizon,
                                         DeadlockPolicy::kHalt);
    PrintRun("Example 5 under full PCP-DA (guard on): no deadlock",
             example.set, result);
    std::printf("deadlocks detected: %lld (paper: 0 — TH is "
                "ceiling-blocked once instead)\n",
                static_cast<long long>(result.metrics.deadlocks));
  }
  {
    PcpDaOptions options;
    options.enable_tstar_guard = false;
    PcpDa naive(options);
    const SimResult result = RunProtocol(example.set, &naive,
                                         example.horizon,
                                         DeadlockPolicy::kHalt);
    PrintRun("Example 5 under naive condition (2) (guard off): deadlock",
             example.set, result);
    std::printf("deadlocks detected: %lld (paper: 1 — TH and TL wait on "
                "each other)\n",
                static_cast<long long>(result.metrics.deadlocks));
  }
  {
    auto pi = MakeProtocol(ProtocolKind::kTwoPlPi);
    const SimResult result = RunProtocol(example.set, pi.get(),
                                         example.horizon,
                                         DeadlockPolicy::kHalt);
    PrintRun("Example 5 under 2PL-PI (contrast): deadlock", example.set,
             result);
    std::printf("deadlocks detected: %lld\n",
                static_cast<long long>(result.metrics.deadlocks));
  }
}

void BM_DeadlockDetection(benchmark::State& state) {
  const PaperExample example = Example5();
  PcpDaOptions options;
  options.enable_tstar_guard = false;
  const CompiledPlan plan =
      CompiledPlan::Compile(example.name, example.set, example.horizon,
                            {.lint = false})
          .value();
  for (auto _ : state) {
    PcpDa naive(options);
    SimulatorOptions sim_options;
    sim_options.horizon = example.horizon;
    sim_options.record_trace = false;
    sim_options.record_history = false;
    Simulator sim(plan, &naive, sim_options);
    SimResult result = sim.Run();
    benchmark::DoNotOptimize(result.metrics.deadlocks);
  }
}
BENCHMARK(BM_DeadlockDetection);

}  // namespace
}  // namespace pcpda

int main(int argc, char** argv) {
  pcpda::PrintExample5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
