#ifndef PCPDA_TESTS_TEST_UTIL_H_
#define PCPDA_TESTS_TEST_UTIL_H_

#include <string>

#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "txn/spec.h"
#include "workload/paper_examples.h"

namespace pcpda {

/// `set` lowered (lint off) for a Simulator; the run's horizon comes
/// from SimulatorOptions.
inline CompiledPlan PlanOf(const TransactionSet& set) {
  return CompiledPlan::Compile("test", set, /*horizon=*/0, {.lint = false})
      .value();
}

/// Runs `set` under a fresh protocol of `kind` for `horizon` ticks. The
/// invariant auditor is on: any run that corrupts lock/ceiling/inheritance
/// state fails through SimResult.status.
inline SimResult RunWith(const TransactionSet& set, ProtocolKind kind,
                         Tick horizon,
                         DeadlockPolicy deadlock_policy =
                             DeadlockPolicy::kHalt) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = deadlock_policy;
  options.audit = true;
  Simulator sim(PlanOf(set), protocol.get(), options);
  return sim.Run();
}

/// Runs `set` under a caller-provided protocol instance.
inline SimResult RunWith(const TransactionSet& set, Protocol* protocol,
                         Tick horizon,
                         DeadlockPolicy deadlock_policy =
                             DeadlockPolicy::kHalt) {
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = deadlock_policy;
  options.audit = true;
  Simulator sim(PlanOf(set), protocol, options);
  return sim.Run();
}

inline SimResult RunExample(const PaperExample& example,
                            ProtocolKind kind) {
  return RunWith(example.set, kind, example.horizon);
}

/// Gantt + metrics, for EXPECT failure messages.
inline std::string FailureContext(const TransactionSet& set,
                                  const SimResult& result) {
  return RenderGantt(set, result.trace) + "\n" +
         result.metrics.DebugString(set);
}

/// Commit time of the instance-`instance` job of `spec`, or -1.
inline Tick CommitTime(const SimResult& result, SpecId spec, int instance) {
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kCommit && e.spec == spec &&
        e.instance == instance) {
      return e.tick;
    }
  }
  return -1;
}

}  // namespace pcpda

#endif  // PCPDA_TESTS_TEST_UTIL_H_
