#ifndef PCPDA_TESTS_TEST_UTIL_H_
#define PCPDA_TESTS_TEST_UTIL_H_

#include <optional>
#include <string>
#include <vector>

#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "trace/trace.h"
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

// --- Trace queries, over the public events() and spans() ------------------

/// Events of one kind, in order.
inline std::vector<TraceEvent> EventsOfKind(const Trace& trace,
                                            TraceKind kind) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

/// Events of one kind for one spec.
inline std::vector<TraceEvent> EventsOfKind(const Trace& trace,
                                            TraceKind kind, SpecId spec) {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == kind && e.spec == spec) out.push_back(e);
  }
  return out;
}

/// The first event of `kind` for `job`, if any.
inline std::optional<TraceEvent> FirstEvent(const Trace& trace,
                                            TraceKind kind, JobId job) {
  for (const TraceEvent& e : trace.events()) {
    if (e.kind == kind && e.job == job) return e;
  }
  return std::nullopt;
}

/// The spec running at `tick` (kInvalidSpec if idle or outside the
/// retained ticks).
inline SpecId RunningSpecAt(const Trace& trace, Tick tick) {
  for (const TickSpan& span : trace.spans()) {
    if (span.begin <= tick && tick < span.end) {
      return span.record.running_spec;
    }
  }
  return kInvalidSpec;
}

/// Ticks during which `spec` was running.
inline Tick RunningTicks(const Trace& trace, SpecId spec) {
  Tick total = 0;
  for (const TickSpan& span : trace.spans()) {
    if (span.record.running_spec == spec) total += span.length();
  }
  return total;
}

/// Ticks during which `job` appears blocked.
inline Tick BlockedTicks(const Trace& trace, JobId job) {
  Tick total = 0;
  for (const TickSpan& span : trace.spans()) {
    for (const BlockedSample& b : span.record.blocked) {
      if (b.job == job) {
        total += span.length();
        break;
      }
    }
  }
  return total;
}

/// Max ceiling level observed over the run (the paper's Max_Sysceil).
inline Priority MaxCeiling(const Trace& trace) {
  Priority max = Priority::Dummy();
  for (const TickSpan& span : trace.spans()) {
    max = Max(max, span.record.ceiling);
  }
  return max;
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
