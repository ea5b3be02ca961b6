// Scenario runner: load a transaction set from a .scn file and simulate
// it under a chosen protocol (or all of them). The static analyzer runs
// as a pre-flight: lint errors refuse the run (--no-lint skips it).
//
// Exit codes (shared by every CLI in examples/): 0 run clean, 1 findings
// or failed runs, 2 usage or IO error.
//
//   ./build/examples/run_scenario scenarios/example4.scn            # all
//   ./build/examples/run_scenario scenarios/example4.scn PCP-DA
//   ./build/examples/run_scenario scenarios/avionics.scn RW-PCP 800
//   ./build/examples/run_scenario --no-lint broken.scn PCP-DA

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>

#include "common/parse.h"
#include "history/serialization_graph.h"
#include "lint/lint.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "workload/scenario.h"

using namespace pcpda;

namespace {

bool RunOne(const CompiledPlan& plan, ProtocolKind kind, Tick horizon) {
  const Scenario& scenario = plan.scenario();
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  options.faults = scenario.faults;
  options.audit = true;
  Simulator simulator(plan, protocol.get(), options);
  const SimResult result = simulator.Run();
  if (!result.status.ok() && result.audit.ok()) {
    std::printf("--- %s ---\n%s\n\n", ToString(kind),
                result.status.ToString().c_str());
    return false;
  }
  const bool serializable = IsSerializable(result.history);
  std::printf("--- %s ---\n%s\n%s\nserializable: %s\naudit: %s\n\n",
              ToString(kind),
              RenderGantt(scenario.set, result.trace).c_str(),
              result.metrics.DebugString(scenario.set).c_str(),
              serializable ? "yes" : "NO",
              result.audit.DebugString().c_str());
  return result.status.ok() && serializable;
}

}  // namespace

int main(int argc, char** argv) {
  bool lint = true;
  if (argc > 1 && std::strcmp(argv[1], "--no-lint") == 0) {
    lint = false;
    --argc;
    ++argv;
  }
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s [--no-lint] <scenario.scn> [protocol] "
                 "[horizon]\nprotocols:",
                 argv[0]);
    for (ProtocolKind kind : AllProtocolKinds()) {
      std::fprintf(stderr, " %s", ToString(kind));
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const auto scenario = LoadScenarioFile(argv[1]);
  if (!scenario.ok()) {
    std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
    return 2;
  }
  if (lint) {
    const LintReport report = LintScenario(*scenario);
    if (!report.diagnostics.empty()) {
      std::fprintf(stderr, "%s", report.Render(argv[1]).c_str());
    }
    if (!report.clean()) {
      std::fprintf(stderr,
                   "refusing to simulate a scenario with lint errors "
                   "(--no-lint overrides)\n");
      return 1;
    }
  }
  Tick horizon = scenario->horizon;
  if (argc > 3) {
    // 0 is legal and means "fall back to twice the hyperperiod" below.
    if (!ParseFlagInt64("horizon", argv[3], 0,
                        std::numeric_limits<Tick>::max(), &horizon)) {
      return 2;
    }
  }
  if (horizon <= 0) horizon = 2 * scenario->set.Hyperperiod();
  if (horizon <= 0) {
    std::fprintf(stderr,
                 "scenario has no horizon and no periodic transactions; "
                 "pass one explicitly\n");
    return 2;
  }

  std::printf("scenario %s (%d transactions, %d items, horizon %lld)\n\n",
              scenario->name.c_str(), scenario->set.size(),
              scenario->set.item_count(),
              static_cast<long long>(horizon));

  // Lower the scenario once; every protocol run below shares the plan.
  // (Lint already ran above when requested, so compile without it.)
  const CompiledPlan plan =
      CompiledPlan::Compile(*scenario, {.lint = false}).value();

  bool all_ok = true;
  if (argc > 2) {
    const auto kind = ProtocolKindByName(argv[2]);
    if (!kind.has_value()) {
      std::fprintf(stderr, "unknown protocol %s\n", argv[2]);
      return 2;
    }
    all_ok = RunOne(plan, *kind, horizon);
  } else {
    for (ProtocolKind kind : AllProtocolKinds()) {
      all_ok = RunOne(plan, kind, horizon) && all_ok;
    }
  }
  return all_ok ? 0 : 1;
}
