// Quickstart: define a periodic transaction set, run it under PCP-DA, and
// inspect the schedule, blocking metrics and serializability of the
// resulting history.
//
//   ./build/examples/quickstart

#include <cstdio>

#include "core/pcp_da.h"
#include "history/serialization_graph.h"
#include "plan/compiled_plan.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "txn/spec.h"

using namespace pcpda;

int main() {
  // Three periodic transactions over two shared data items. The sensor
  // writes `reading`; the controller reads it and writes `command`; the
  // logger reads both. Rate-monotonic priorities: sensor > controller >
  // logger.
  constexpr ItemId kReading = 0;
  constexpr ItemId kCommand = 1;

  TransactionSpec sensor;
  sensor.name = "sensor";
  sensor.period = 10;
  sensor.body = {Write(kReading), Compute(1)};

  TransactionSpec controller;
  controller.name = "controller";
  controller.period = 20;
  controller.body = {Read(kReading), Compute(2), Write(kCommand)};

  TransactionSpec logger;
  logger.name = "logger";
  logger.period = 40;
  logger.body = {Read(kReading), Read(kCommand), Compute(4)};

  auto set = TransactionSet::Create({sensor, controller, logger});
  if (!set.ok()) {
    std::fprintf(stderr, "bad transaction set: %s\n",
                 set.status().ToString().c_str());
    return 1;
  }

  // Lower the set once (static ceilings, arrival calendar), then run two
  // hyperperiods under the paper's protocol.
  const Tick horizon = 2 * set->Hyperperiod();
  const CompiledPlan plan =
      CompiledPlan::Compile("quickstart", *set, horizon, {.lint = false})
          .value();
  PcpDa protocol;
  SimulatorOptions options;
  options.horizon = horizon;
  Simulator simulator(plan, &protocol, options);
  const SimResult result = simulator.Run();
  if (!result.status.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 result.status.ToString().c_str());
    return 1;
  }

  std::printf("PCP-DA schedule (two hyperperiods):\n%s\n\n",
              RenderGantt(*set, result.trace).c_str());
  std::printf("%s\n\n", result.metrics.DebugString(*set).c_str());
  std::printf("all deadlines met: %s\n",
              result.metrics.AllDeadlinesMet() ? "yes" : "no");
  std::printf("history conflict-serializable: %s\n",
              IsSerializable(result.history) ? "yes" : "no");
  return 0;
}
