#ifndef PCPDA_BENCH_BENCH_UTIL_H_
#define PCPDA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/parse.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "runner/batch_runner.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "txn/spec.h"
#include "workload/paper_examples.h"
#include "workload/scenario.h"

namespace pcpda {

/// Runs `set` under a fresh protocol of `kind`.
inline SimResult BenchRun(const TransactionSet& set, ProtocolKind kind,
                          Tick horizon,
                          DeadlockPolicy deadlock_policy =
                              DeadlockPolicy::kHalt,
                          bool record = true) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = deadlock_policy;
  options.record_trace = record;
  options.record_history = record;
  Simulator sim(
      CompiledPlan::Compile("bench", set, horizon, {.lint = false}).value(),
      protocol.get(), options);
  return sim.Run();
}

/// Executor count for the sweep benches: PCPDA_JOBS overrides, else
/// hardware concurrency. Sweep outputs are independent of this value (the
/// batch runner returns results in submission order). A malformed value
/// warns on stderr and degrades to serial (1) instead of being silently
/// misread by atoi.
inline int BenchJobs() {
  if (const char* env = std::getenv("PCPDA_JOBS")) {
    if (env[0] != '\0') return JobsFromEnv("PCPDA_JOBS", 1);
  }
  return ExecutorPool::DefaultThreads();
}

/// Shared batch helper for design-point grids: one RunSpec per
/// (protocol, scenario) pair, protocol-major, executed on `runner`.
/// Result index = kind_index * scenarios.size() + scenario_index.
/// Each scenario is compiled once up front, without the lint gate (bench
/// scenarios come from validated generators); all protocol runs over it
/// share the plan.
inline std::vector<SimResult> RunGrid(BatchRunner& runner,
                                      const std::vector<Scenario>& scenarios,
                                      const std::vector<ProtocolKind>& kinds,
                                      const SimulatorOptions& base_options,
                                      const PcpDaOptions& pcp_da = {}) {
  std::vector<CompiledPlan> plans;
  plans.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios) {
    plans.push_back(CompiledPlan::Compile(scenario, {.lint = false}).value());
  }
  std::vector<RunSpec> specs;
  specs.reserve(kinds.size() * scenarios.size());
  for (const ProtocolKind kind : kinds) {
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      RunSpec spec;
      spec.scenario = &scenarios[i];
      spec.protocol = kind;
      spec.options = base_options;
      spec.pcp_da = pcp_da;
      spec.plan = &plans[i];
      specs.push_back(std::move(spec));
    }
  }
  return runner.Run(specs);
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

inline void PrintRun(const std::string& title, const TransactionSet& set,
                     const SimResult& result) {
  PrintHeader(title);
  std::printf("%s\n\n%s\n", RenderGantt(set, result.trace).c_str(),
              result.metrics.DebugString(set).c_str());
}

}  // namespace pcpda

#endif  // PCPDA_BENCH_BENCH_UTIL_H_
