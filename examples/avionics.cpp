// Avionics scenario: the kind of hard real-time database workload the
// paper's introduction motivates (mission-critical periodic transactions
// over shared state). A flight-control loop, navigation, a radar tracker
// and a telemetry downlink share an attitude/track store; the example
// runs the set under every protocol and reports which ones keep all
// deadlines, how much blocking each causes, and the restart overhead of
// the abort-based baseline.
//
//   ./build/examples/avionics

#include <cstdio>

#include "analysis/report.h"
#include "history/serialization_graph.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "txn/spec.h"

using namespace pcpda;

namespace {

// Shared memory-resident items.
constexpr ItemId kAttitude = 0;   // current attitude estimate
constexpr ItemId kActuators = 1;  // control surface commands
constexpr ItemId kNavState = 2;   // fused navigation state
constexpr ItemId kTrackA = 3;     // radar track table (two shards)
constexpr ItemId kTrackB = 4;
constexpr ItemId kTelemetry = 5;  // downlink staging buffer

TransactionSet BuildWorkload() {
  // Inner control loop: read the attitude, compute, drive actuators.
  TransactionSpec control;
  control.name = "control";
  control.period = 20;
  control.body = {Read(kAttitude), Compute(2), Write(kActuators)};

  // Attitude estimator: fuse sensors into the attitude estimate.
  TransactionSpec estimator;
  estimator.name = "estimator";
  estimator.period = 25;
  estimator.body = {Read(kNavState), Compute(3), Write(kAttitude)};

  // Navigation: propagate the nav state.
  TransactionSpec navigation;
  navigation.name = "nav";
  navigation.period = 50;
  navigation.body = {Read(kAttitude), Compute(4), Write(kNavState)};

  // Radar tracker: update both track shards.
  TransactionSpec tracker;
  tracker.name = "tracker";
  tracker.period = 100;
  tracker.body = {Read(kNavState), Compute(5), Write(kTrackA),
                  Write(kTrackB)};

  // Telemetry downlink: long, low-priority reader of everything.
  TransactionSpec telemetry;
  telemetry.name = "telemetry";
  telemetry.period = 200;
  telemetry.body = {Read(kAttitude), Read(kNavState), Read(kTrackA),
                    Read(kTrackB), Compute(12), Write(kTelemetry)};

  auto set = TransactionSet::Create(
      {control, estimator, navigation, tracker, telemetry});
  if (!set.ok()) {
    std::fprintf(stderr, "%s\n", set.status().ToString().c_str());
    std::abort();
  }
  return std::move(set).value();
}

}  // namespace

int main() {
  const TransactionSet set = BuildWorkload();
  std::printf("workload (rate-monotonic priorities):\n%s\n\n",
              set.DebugString().c_str());
  std::printf("offline analysis:\n%s\n\n",
              SchedulabilityReport(set).c_str());

  const Tick horizon = 2 * set.Hyperperiod();
  const CompiledPlan plan =
      CompiledPlan::Compile("avionics", set, horizon, {.lint = false})
          .value();
  std::printf("%-8s %-6s %-8s %-10s %-9s %-9s %-8s\n", "proto", "miss",
              "commits", "blockticks", "restarts", "deadlock", "serial");
  for (ProtocolKind kind : AllProtocolKinds()) {
    auto protocol = MakeProtocol(kind);
    SimulatorOptions options;
    options.horizon = horizon;
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    Simulator simulator(plan, protocol.get(), options);
    const SimResult result = simulator.Run();
    Tick blocking = 0;
    for (const auto& m : result.metrics.per_spec) {
      blocking += m.effective_blocking_ticks;
    }
    std::printf("%-8s %-6lld %-8lld %-10lld %-9lld %-9lld %-8s\n",
                ToString(kind),
                static_cast<long long>(result.metrics.TotalMisses()),
                static_cast<long long>(result.metrics.TotalCommitted()),
                static_cast<long long>(blocking),
                static_cast<long long>(result.metrics.TotalRestarts()),
                static_cast<long long>(result.metrics.deadlocks),
                IsSerializable(result.history) ? "yes" : "NO");
  }

  // Show the PCP-DA schedule for the first hyperperiod.
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = set.Hyperperiod();
  Simulator simulator(plan, protocol.get(), options);
  const SimResult result = simulator.Run();
  std::printf("\nPCP-DA schedule, first hyperperiod:\n%s\n",
              RenderGantt(set, result.trace).c_str());
  return 0;
}
