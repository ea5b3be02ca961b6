#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/strings.h"
#include "core/pcp_da.h"
#include "fault/fault_plan.h"
#include "history/serialization_graph.h"
#include "protocols/two_pl_pi.h"
#include "sim/arrival_schedule.h"
#include "test_util.h"
#include "workload/generator.h"

#if defined(__GLIBC__) && \
    (__GLIBC__ > 2 || (__GLIBC__ == 2 && __GLIBC_MINOR__ >= 33)) && \
    !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#include <malloc.h>
#define PCPDA_HAVE_MALLINFO2 1
#endif

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs,
                       PriorityAssignment pa =
                           PriorityAssignment::kAsListed) {
  auto set = TransactionSet::Create(std::move(specs), pa);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

TEST(SimulatorTest, RejectsZeroHorizon) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  PcpDa protocol;
  Simulator sim(PlanOf(set), &protocol, SimulatorOptions{});
  const SimResult result = sim.Run();
  EXPECT_FALSE(result.status.ok());
}

TEST(SimulatorTest, SingleComputeJobRunsToCommit) {
  TransactionSet set =
      MakeSet({{.name = "T", .offset = 2, .body = {Compute(3)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_TRUE(result.status.ok());
  const auto& m = result.metrics.per_spec[0];
  EXPECT_EQ(m.released, 1);
  EXPECT_EQ(m.committed, 1);
  EXPECT_EQ(m.busy_ticks, 3);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_EQ(result.metrics.idle_ticks, 10 - 3);
}

TEST(SimulatorTest, PeriodicReleases) {
  TransactionSet set =
      MakeSet({{.name = "T", .period = 4, .body = {Compute(1)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  EXPECT_EQ(result.metrics.per_spec[0].released, 3);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 3);
  EXPECT_TRUE(result.metrics.AllDeadlinesMet());
}

TEST(SimulatorTest, HigherPriorityPreempts) {
  TransactionSet set = MakeSet({
      {.name = "hi", .offset = 2, .body = {Compute(2)}},
      {.name = "lo", .offset = 0, .body = {Compute(6)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  // lo runs [0,2), hi preempts [2,4), lo resumes [4,8).
  EXPECT_EQ(CommitTime(result, 0, 0), 4);
  EXPECT_EQ(CommitTime(result, 1, 0), 8);
  EXPECT_EQ(result.metrics.per_spec[1].preempted_ticks, 2);
  EXPECT_EQ(result.metrics.per_spec[1].blocked_ticks, 0);
}

TEST(SimulatorTest, DeadlineMissRecordedOnceAndJobContinues) {
  // C=5 but deadline (=period) is 4.
  TransactionSpec t{.name = "T", .period = 8, .body = {Compute(5)}};
  t.relative_deadline = 4;
  TransactionSet set = MakeSet({t});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 8);
  EXPECT_EQ(result.metrics.per_spec[0].deadline_misses, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_EQ(EventsOfKind(result.trace, TraceKind::kDeadlineMiss).size(),
            1u);
}

TEST(SimulatorTest, DeadlineMissDropPolicy) {
  TransactionSpec t{.name = "T", .period = 8, .body = {Compute(5)}};
  t.relative_deadline = 4;
  TransactionSpec hog{.name = "hog", .offset = 0, .body = {Compute(4)}};
  // hog has higher listed priority, starving T past its deadline.
  TransactionSet set = MakeSet({hog, t});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 8;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_EQ(result.metrics.per_spec[1].deadline_misses, 1);
  EXPECT_EQ(result.metrics.per_spec[1].dropped, 1);
  EXPECT_EQ(result.metrics.per_spec[1].committed, 0);
}

TEST(SimulatorTest, DeadlineMissHaltPolicy) {
  TransactionSpec t{.name = "T", .period = 6, .body = {Compute(5)}};
  t.relative_deadline = 2;
  TransactionSet set = MakeSet({t});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 20;
  options.miss_policy = DeadlineMissPolicy::kHalt;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.metrics.halted_on_miss);
  EXPECT_LT(result.trace.tick_count(), 20);
}

TEST(SimulatorTest, ReadObservesCommittedValue) {
  // writer (higher priority) commits, then reader reads the new value.
  TransactionSet set = MakeSet({
      {.name = "W", .offset = 0, .body = {Write(0)}},
      {.name = "R", .offset = 0, .body = {Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_EQ(result.history.committed().size(), 2u);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  ASSERT_EQ(reader->ops.size(), 1u);
  EXPECT_EQ(reader->ops[0].observed.writer, 0);  // job 0 = writer
}

TEST(SimulatorTest, OwnWorkspaceReadAfterWrite) {
  TransactionSet set = MakeSet({
      {.name = "T", .offset = 0, .body = {Write(0), Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  ASSERT_EQ(result.history.committed().size(), 1u);
  const auto& ops = result.history.committed()[0].ops;
  // write (at commit), read (own).
  bool saw_own_read = false;
  for (const HistoryOp& op : ops) {
    if (op.kind == HistoryOp::Kind::kRead) {
      EXPECT_TRUE(op.own_read);
      EXPECT_EQ(op.observed.writer, 0);
      saw_own_read = true;
    }
  }
  EXPECT_TRUE(saw_own_read);
}

TEST(SimulatorTest, WorkspaceWritesApplyAtCommitOnly) {
  // Reader samples x while the lower-priority writer is mid-transaction.
  TransactionSet set = MakeSet({
      {.name = "R", .offset = 1, .body = {Read(0)}},
      {.name = "W", .offset = 0, .body = {Write(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 0) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  // The write was pending in W's workspace: R saw the initial value.
  EXPECT_EQ(reader->ops[0].observed.writer, kInvalidJob);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(SimulatorTest, InPlaceWritesApplyImmediately) {
  TransactionSet set = MakeSet({
      {.name = "W", .offset = 0, .body = {Write(0)}},
      {.name = "R", .offset = 0, .body = {Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 10);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ops[0].observed.writer, 0);
}

TEST(SimulatorTest, TraceTicksCoverHorizon) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 7);
  EXPECT_EQ(result.trace.tick_count(), 7);
  // The spans tile [0, 7) in order.
  Tick next = 0;
  for (const TickSpan& span : result.trace.spans()) {
    EXPECT_EQ(span.begin, next);
    next = span.end;
  }
  EXPECT_EQ(next, 7);
}

TEST(SimulatorTest, FastForwardStopsAtHorizonWithNoMoreArrivals) {
  // One-shot job, huge idle tail: the run must still account for every
  // tick up to the horizon, not stop at the last arrival.
  TransactionSet set = MakeSet(
      {{.name = "Once", .period = 0, .offset = 3, .body = {Compute(2)}}});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 5000;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.idle_ticks, 5000 - 2);
  EXPECT_EQ(result.trace.tick_count(), 5000);
  EXPECT_EQ(result.trace.end_tick() - 1, 4999);
}

TEST(SimulatorTest, MissRatioCensorsReleaseJustBeforeHorizon) {
  // A hogs every other tick, so B (needs 5 ticks out of the 4 odd ticks
  // per period) misses each deadline. B's instance released one tick
  // before the horizon has a deadline beyond it — neither met nor missed.
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 2, .body = {Compute(1)}},
          {.name = "B", .period = 8, .body = {Compute(5)}},
      },
      PriorityAssignment::kRateMonotonic);
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 9;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  const RunMetrics& m = result.metrics;
  EXPECT_EQ(m.TotalReleased(), 7);  // A at 0,2,4,6,8; B at 0,8
  EXPECT_EQ(m.TotalMisses(), 1);    // B's first instance, at tick 8
  // B@8 is censored; B@0 already missed, so it counts as decided even
  // though it is still running at the horizon.
  EXPECT_EQ(m.TotalPending(), 1);
  EXPECT_EQ(m.per_spec[1].pending_at_horizon, 1);
  EXPECT_DOUBLE_EQ(m.MissRatio(), 1.0 / 6.0);
}

TEST(SimulatorTest, ResponseTimeMetrics) {
  TransactionSet set = MakeSet({
      {.name = "hi", .period = 5, .body = {Compute(1)}},
      {.name = "lo", .period = 10, .body = {Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(result.metrics.per_spec[0].max_response, 1);
  // lo: runs [1,4) after hi's first instance -> response 4.
  EXPECT_EQ(result.metrics.per_spec[1].max_response, 4);
}

TEST(SimulatorTest, RecordingCanBeDisabled) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Read(0)}}});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 5;
  options.record_trace = false;
  options.record_history = false;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.trace.events().empty());
  EXPECT_TRUE(result.trace.spans().empty());
  EXPECT_TRUE(result.history.committed().empty());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(SimulatorTest, LockReacquisitionNotNeededWithinJob) {
  // Read x twice: the second read reuses the held lock.
  TransactionSet set =
      MakeSet({{.name = "T", .body = {Read(0), Compute(1), Read(0)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(EventsOfKind(result.trace, TraceKind::kLockGrant).size(), 1u);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(SimulatorTest, LocksReleasedAtCommit) {
  TransactionSet set = MakeSet({
      {.name = "A", .offset = 0, .body = {Write(0)}},
      {.name = "B", .offset = 2, .body = {Write(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 10);
  EXPECT_EQ(result.metrics.per_spec[1].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[1].blocked_ticks, 0);
}

/// 2PL-PI with a commit path that leaks a lock: after each commit it
/// hands the committed job a write lock on d0 again.
class LockLeakingProtocol : public TwoPlPi {
 public:
  void OnCommitApplied(const Job& committed) override {
    const_cast<LockTable&>(view().locks()).AcquireWrite(committed.id(), 0);
  }
};

TEST(SimulatorTest, AuditorReportsLeakedLockAsCommittedThenRetired) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Write(0)}}});
  LockLeakingProtocol protocol;
  const SimResult result = RunWith(set, &protocol, 3);
  EXPECT_FALSE(result.status.ok());
  const std::vector<AuditViolation>& violations = result.audit.violations;
  ASSERT_EQ(violations.size(), 3u) << result.audit.DebugString();
  // The retirement tick still scans the job, so it shows its real state.
  EXPECT_EQ(violations[0].tick, 0);
  EXPECT_EQ(violations[0].check, "lock-holder-active");
  EXPECT_EQ(violations[0].detail, "job 0 holds locks but is committed");
  // From the next tick on the job is freed; only the leaked lock names it.
  for (std::size_t i = 1; i < violations.size(); ++i) {
    EXPECT_EQ(violations[i].tick, static_cast<Tick>(i));
    EXPECT_EQ(violations[i].check, "lock-holder-active");
    EXPECT_EQ(violations[i].detail, "job 0 holds locks but is retired");
  }
}

// --- Fast-forward vs the per-tick loop ----------------------------------
//
// A fault plan turns both fast-forwards (idle gaps and busy stretches
// inside an admitted step) off, because it may draw randomness on any
// tick. A one-shot fault due at the horizon never fires and draws nothing,
// so a run carrying one walks every tick and is the per-tick reference for
// a plain run with the same inputs. The auditor no longer stops the leap;
// audit on vs off is a second comparison, in which the audit may change
// nothing but SimResult.audit.

/// Ticks a run simulated: each one either idles or runs exactly one job,
/// and a halt ends the run before the halting tick is credited.
Tick SimulatedTicks(const RunMetrics& metrics) {
  Tick ticks = metrics.idle_ticks;
  for (const SpecMetrics& spec : metrics.per_spec) ticks += spec.busy_ticks;
  return ticks;
}

/// `options` plus an abort fault that is armed for the horizon and so
/// never fires.
SimulatorOptions WithDormantFault(SimulatorOptions options) {
  FaultSpec dormant;
  dormant.kind = FaultKind::kAbort;
  dormant.at = options.horizon;
  options.faults.faults.push_back(dormant);
  return options;
}

/// A random set whose data steps last 1-4 ticks and whose compute steps
/// last up to 12, on few items so that locks are held across many ticks
/// while other jobs wait; utilization reaches past 1 so deadlines fall.
TransactionSet RandomLongStepSet(Rng& rng) {
  std::vector<TransactionSpec> specs;
  const int count = static_cast<int>(rng.UniformInt(2, 5));
  for (int i = 0; i < count; ++i) {
    TransactionSpec spec;
    spec.period = rng.UniformInt(20, 90);
    spec.offset = rng.UniformInt(0, 15);
    const int steps = static_cast<int>(rng.UniformInt(1, 4));
    for (int k = 0; k < steps; ++k) {
      const Tick duration = rng.UniformInt(1, 4);
      const ItemId item = static_cast<ItemId>(rng.UniformInt(0, 3));
      switch (rng.UniformInt(0, 2)) {
        case 0:
          spec.body.push_back(Read(item, duration));
          break;
        case 1:
          spec.body.push_back(Write(item, duration));
          break;
        default:
          spec.body.push_back(Compute(rng.UniformInt(1, 12)));
          break;
      }
    }
    specs.push_back(std::move(spec));
  }
  return MakeSet(std::move(specs), PriorityAssignment::kRateMonotonic);
}

enum class Arm {
  /// Plain run: both fast-forwards on.
  kLeap,
  /// Dormant fault attached: every tick walked.
  kPerTick,
  /// Auditor attached: leaps while the verdict is clean.
  kAudited,
  /// Auditor and dormant fault: every tick walked and audited.
  kAuditedPerTick,
};

SimResult RunArm(const TransactionSet& set, ProtocolKind kind,
                 SimulatorOptions options, Arm arm) {
  if (arm == Arm::kPerTick || arm == Arm::kAuditedPerTick) {
    options = WithDormantFault(std::move(options));
  }
  options.audit = arm == Arm::kAudited || arm == Arm::kAuditedPerTick;
  auto protocol = MakeProtocol(kind);
  Simulator sim(PlanOf(set), protocol.get(), options);
  return sim.Run();
}

void ExpectSameRun(const TransactionSet& set, const SimResult& a,
                   const SimResult& b, const std::string& label) {
  EXPECT_EQ(a.status.ToString(), b.status.ToString()) << label;
  EXPECT_EQ(a.metrics.DebugString(set), b.metrics.DebugString(set))
      << label;
  EXPECT_TRUE(a.metrics == b.metrics) << label;
  EXPECT_TRUE(a.trace == b.trace) << label;
  EXPECT_TRUE(a.history == b.history) << label;
}

/// Runs `set` in all four arms and expects the same status, metrics,
/// trace and history from each: the leaping runs against the walking
/// reference, audit on against audit off. Both audited runs must give the
/// same report, with one audited tick per simulated tick. Returns the
/// plain run.
SimResult ExpectLeapMatchesPerTick(const TransactionSet& set,
                                   ProtocolKind kind,
                                   const SimulatorOptions& options,
                                   const std::string& label) {
  SimResult fast = RunArm(set, kind, options, Arm::kLeap);
  const SimResult slow = RunArm(set, kind, options, Arm::kPerTick);
  const SimResult audited = RunArm(set, kind, options, Arm::kAudited);
  const SimResult audited_slow =
      RunArm(set, kind, options, Arm::kAuditedPerTick);
  ExpectSameRun(set, fast, slow, label + " leap vs per-tick");
  ExpectSameRun(set, fast, audited, label + " audit off vs on");
  ExpectSameRun(set, audited, audited_slow,
                label + " audited leap vs per-tick");
  EXPECT_TRUE(audited.audit == audited_slow.audit) << label;
  EXPECT_TRUE(audited.audit.ok()) << label << audited.audit.DebugString();
  EXPECT_EQ(audited.audit.ticks_audited, SimulatedTicks(audited.metrics))
      << label;
  EXPECT_EQ(audited_slow.audit.ticks_audited,
            SimulatedTicks(audited_slow.metrics))
      << label;
  EXPECT_EQ(slow.metrics.faults.injected_aborts, 0) << label;
  EXPECT_TRUE(EventsOfKind(slow.trace, TraceKind::kFault).empty()) << label;
  return fast;
}

TEST(SimulatorTest, DormantFaultIsValidAndChangesNothing) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 7, .body = {Read(0, 2), Compute(3)}},
      {.name = "B", .period = 11, .body = {Write(0, 3), Compute(2)}},
  });
  SimulatorOptions options;
  options.horizon = 60;
  EXPECT_TRUE(
      ValidateFaultConfig(WithDormantFault(options).faults, set).ok());
  const SimResult plain = RunArm(set, ProtocolKind::kPcpDa, options,
                                 Arm::kLeap);
  const SimResult dormant = RunArm(set, ProtocolKind::kPcpDa, options,
                                   Arm::kPerTick);
  ASSERT_TRUE(dormant.status.ok()) << dormant.status.ToString();
  ExpectSameRun(set, plain, dormant, "dormant fault");
}

TEST(SimulatorTest, IdleFastForwardMatchesPerTickEngine) {
  // Sparse workload: 2 busy ticks then a 98-tick idle gap, every period.
  // A plain run fast-forwards the gaps, and so does an audited one; a run
  // carrying a dormant fault walks every tick. All three must report
  // byte-identical results.
  TransactionSet set = MakeSet(
      {{.name = "Sparse", .period = 100, .body = {Read(0), Write(1)}}});
  SimulatorOptions options;
  options.horizon = 1000;
  const SimResult fast =
      RunArm(set, ProtocolKind::kPcpDa, options, Arm::kLeap);
  const SimResult slow =
      RunArm(set, ProtocolKind::kPcpDa, options, Arm::kPerTick);
  const SimResult audited =
      RunArm(set, ProtocolKind::kPcpDa, options, Arm::kAudited);
  ASSERT_TRUE(fast.status.ok());
  ASSERT_TRUE(slow.status.ok());
  ASSERT_TRUE(audited.status.ok()) << audited.audit.DebugString();
  EXPECT_EQ(fast.metrics.DebugString(set), slow.metrics.DebugString(set));
  EXPECT_EQ(fast.trace.DebugString(), slow.trace.DebugString());
  EXPECT_EQ(fast.metrics.DebugString(set),
            audited.metrics.DebugString(set));
  EXPECT_EQ(fast.trace.DebugString(), audited.trace.DebugString());
  EXPECT_EQ(audited.audit.ticks_audited, 1000);
  EXPECT_EQ(fast.metrics.idle_ticks, 1000 - 10 * 2);
  // Skipped ticks still produce their idle TickRecords, consecutively.
  ASSERT_EQ(fast.trace.tick_count(), 1000);
  EXPECT_EQ(fast.trace.first_tick(), 0);
  EXPECT_TRUE(fast.trace.spans() == slow.trace.spans());
}

TEST(SimulatorTest, LeapMatchesPerTickAcrossProtocolsPoliciesAndArrivals) {
  Rng rng(20261017);
  // Tallies over the plain runs, to show the sweep reaches the paths a
  // leap has to stop for or credit in bulk.
  std::int64_t misses = 0, drops = 0, halts = 0, blocked = 0,
               effective = 0, pending = 0;
  for (int round = 0; round < 6; ++round) {
    const TransactionSet set = RandomLongStepSet(rng);
    // Horizons are not aligned to steps, so most runs end mid-step.
    const Tick horizon = rng.UniformInt(300, 900);
    Rng schedule_rng(static_cast<std::uint64_t>(round) + 1);
    const ArrivalSchedule sporadic =
        ArrivalSchedule::Sporadic(set, horizon, 0.5, schedule_rng);
    for (ProtocolKind kind : AllProtocolKinds()) {
      for (DeadlineMissPolicy policy :
           {DeadlineMissPolicy::kContinue, DeadlineMissPolicy::kDrop,
            DeadlineMissPolicy::kHalt}) {
        for (const ArrivalSchedule* arrivals :
             {static_cast<const ArrivalSchedule*>(nullptr), &sporadic}) {
          SimulatorOptions options;
          options.horizon = horizon;
          options.miss_policy = policy;
          options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
          options.arrival_schedule = arrivals;
          const SimResult fast = ExpectLeapMatchesPerTick(
              set, kind, options,
              StrFormat("round %d %s policy %d %s", round, ToString(kind),
                        static_cast<int>(policy),
                        arrivals == nullptr ? "calendar" : "sporadic"));
          const RunMetrics& m = fast.metrics;
          misses += m.TotalMisses();
          halts += m.halted_on_miss ? 1 : 0;
          pending += m.TotalPending();
          for (const SpecMetrics& spec : m.per_spec) {
            drops += spec.dropped;
            blocked += spec.blocked_ticks;
            effective += spec.effective_blocking_ticks;
          }
        }
      }
    }
  }
  EXPECT_GT(misses, 0);
  EXPECT_GT(drops, 0);
  EXPECT_GT(halts, 0);
  EXPECT_GT(blocked, 0);
  EXPECT_GT(effective, 0);
  EXPECT_GT(pending, 0);
}

TEST(SimulatorTest, LeapMatchesPerTickWithBoundedTraceAndNoRecording) {
  Rng rng(7);
  const TransactionSet set = RandomLongStepSet(rng);
  SimulatorOptions bounded;
  bounded.horizon = 777;
  bounded.max_trace_events = 40;
  SimulatorOptions bare;
  bare.horizon = 777;
  bare.record_trace = false;
  bare.record_history = false;
  for (ProtocolKind kind : AllProtocolKinds()) {
    ExpectLeapMatchesPerTick(set, kind, bounded, "bounded trace");
    ExpectLeapMatchesPerTick(set, kind, bare, "no recording");
  }
}

/// The record the trace holds for `tick` (which must be retained).
const TickRecord& RecordAt(const Trace& trace, Tick tick) {
  for (const TickSpan& span : trace.spans()) {
    if (span.begin <= tick && tick < span.end) return span.record;
  }
  ADD_FAILURE() << "tick " << tick << " not retained";
  static const TickRecord kNone;
  return kNone;
}

/// Spans tile the retained window in order, each non-empty, and no two
/// neighbours hold equal records.
void ExpectCanonicalSpans(const Trace& trace, const std::string& label) {
  const std::vector<TickSpan>& spans = trace.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_LT(spans[i].begin, spans[i].end) << label << " span " << i;
    if (i == 0) continue;
    EXPECT_EQ(spans[i - 1].end, spans[i].begin) << label << " span " << i;
    EXPECT_FALSE(spans[i - 1].record == spans[i].record)
        << label << " spans " << i - 1 << " and " << i << " are equal";
  }
}

TEST(SimulatorTest, TraceSpansAreCanonical) {
  // A leapt run appends whole stretches, its per-tick twin one tick at a
  // time; both must hold the same spans, each a maximal run of equal
  // records.
  Rng rng(20261019);
  std::size_t spans = 0;
  Tick ticks = 0;
  for (int round = 0; round < 4; ++round) {
    const TransactionSet set = RandomLongStepSet(rng);
    SimulatorOptions options;
    options.horizon = rng.UniformInt(300, 900);
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    for (ProtocolKind kind : AllProtocolKinds()) {
      const std::string label =
          StrFormat("round %d %s", round, ToString(kind));
      const SimResult leapt = RunArm(set, kind, options, Arm::kLeap);
      const SimResult walked = RunArm(set, kind, options, Arm::kPerTick);
      ASSERT_TRUE(leapt.status.ok()) << label;
      EXPECT_TRUE(leapt.trace == walked.trace) << label;
      ExpectCanonicalSpans(leapt.trace, label + " leapt");
      ExpectCanonicalSpans(walked.trace, label + " walked");
      EXPECT_EQ(leapt.trace.tick_count(), SimulatedTicks(leapt.metrics))
          << label;
      spans += leapt.trace.spans().size();
      ticks += leapt.trace.tick_count();
    }
  }
  // The encoding is doing something: spans are several ticks long.
  EXPECT_LT(static_cast<Tick>(2 * spans), ticks);
}

TEST(SimulatorTest, TraceCeilingDropsOnACommitInsideAStep) {
  // L read-locks x, raising Max_Sysceil to Wceil(x) = P_H, and commits
  // at the end of a three-tick compute step. That tick resolves no
  // dispatch, yet its record must show the ceiling the commit released
  // (ticks pinned from the per-tick record).
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 20, .body = {Write(0)}},
      {.name = "L", .body = {Read(0), Compute(3)}},
  });
  SimulatorOptions options;
  options.horizon = 10;
  for (Arm arm : {Arm::kLeap, Arm::kPerTick}) {
    const SimResult result = RunArm(set, ProtocolKind::kPcpDa, options, arm);
    ASSERT_TRUE(result.status.ok());
    for (Tick t = 0; t < 3; ++t) {
      EXPECT_EQ(RecordAt(result.trace, t).ceiling, set.priority(0))
          << "tick " << t;
    }
    EXPECT_EQ(RecordAt(result.trace, 3).running_job, 0);
    EXPECT_TRUE(RecordAt(result.trace, 3).ceiling.is_dummy());
    // read, compute under the ceiling, the commit tick, idle.
    EXPECT_EQ(result.trace.spans().size(), 4u);
  }
}

TEST(SimulatorTest, BoundedTraceKeepsItsTickWindow) {
  // The capacity counts ticks, not spans: the retained window and the
  // dropped-tick count are those of the per-tick record the trace stored
  // before spans (values pinned from that engine), and every retained
  // tick carries the unbounded run's record.
  struct Pin {
    std::size_t capacity;
    Tick first_tick;
    Tick tick_count;
    std::int64_t dropped_ticks;
    std::int64_t dropped_events[8];  // per AllProtocolKinds() entry
  };
  const Pin pins[] = {
      {40, 720, 57, 720, {120, 160, 200, 160, 160, 200, 120, 120}},
      {7, 770, 7, 770, {189, 217, 252, 217, 217, 231, 189, 189}},
  };
  Rng rng(7);
  const TransactionSet set = RandomLongStepSet(rng);
  const std::vector<ProtocolKind> kinds = AllProtocolKinds();
  ASSERT_EQ(kinds.size(), 8u);
  for (const Pin& pin : pins) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const std::string label =
          StrFormat("capacity %zu %s", pin.capacity, ToString(kinds[k]));
      SimulatorOptions options;
      options.horizon = 777;
      const SimResult full = RunArm(set, kinds[k], options, Arm::kLeap);
      options.max_trace_events = pin.capacity;
      const SimResult leapt = RunArm(set, kinds[k], options, Arm::kLeap);
      const SimResult walked = RunArm(set, kinds[k], options, Arm::kPerTick);
      EXPECT_TRUE(leapt.trace == walked.trace) << label;
      ExpectCanonicalSpans(leapt.trace, label);
      EXPECT_EQ(leapt.trace.first_tick(), pin.first_tick) << label;
      EXPECT_EQ(leapt.trace.tick_count(), pin.tick_count) << label;
      EXPECT_EQ(leapt.trace.dropped_ticks(), pin.dropped_ticks) << label;
      EXPECT_EQ(leapt.trace.dropped_events(), pin.dropped_events[k])
          << label;
      for (Tick t = leapt.trace.first_tick(); t < leapt.trace.end_tick();
           ++t) {
        EXPECT_TRUE(RecordAt(leapt.trace, t) == RecordAt(full.trace, t))
            << label << " tick " << t;
      }
    }
  }
}

TEST(SimulatorTest, HorizonInsideALeapableStepCreditsOnlyTicksBeforeIt) {
  // One 10-tick step and a horizon of 7: the leap must stop at the
  // horizon, leaving the job pending three ticks short of its step's end.
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(10)}}});
  SimulatorOptions options;
  options.horizon = 7;
  const SimResult fast =
      RunArm(set, ProtocolKind::kPcpDa, options, Arm::kLeap);
  ASSERT_TRUE(fast.status.ok()) << fast.status.ToString();
  EXPECT_EQ(fast.metrics.per_spec[0].busy_ticks, 7);
  EXPECT_EQ(fast.metrics.per_spec[0].committed, 0);
  EXPECT_EQ(fast.metrics.idle_ticks, 0);
  ASSERT_EQ(fast.trace.tick_count(), 7);
  EXPECT_EQ(fast.trace.spans().back().end - 1, 6);
  EXPECT_EQ(fast.trace.spans().back().record.running_job, 0);
  ExpectLeapMatchesPerTick(set, ProtocolKind::kPcpDa, options, "mid-step");
}

TEST(SimulatorTest, TickBudgetRunsOutInsideABusyStretchAtTheSameTick) {
  // Hi preempts Long's 20-tick compute step; both compute steps are
  // stretches the core fast-forwards. Every tick a job runs counts toward
  // the budget, whether it is leapt or not; the idle gaps skipped by the
  // idle fast-forward do not (tick 0, run by the loop before the gap to
  // Long's release at 3, does). Each budget below runs out inside a
  // compute step, at the tick the per-tick engine names: inside Long's
  // first compute (5, 20) and Hi's (10, and 40 at Hi's third release).
  TransactionSet set = MakeSet({
      {.name = "Hi", .period = 25, .offset = 10, .body = {Compute(4)}},
      {.name = "Long",
       .period = 50,
       .offset = 3,
       .body = {Read(0), Compute(20), Write(1)}},
  });
  const std::vector<std::pair<Tick, Tick>> budget_and_tick = {
      {5, 7}, {10, 12}, {20, 22}, {40, 62}};
  for (const auto& [budget, tick] : budget_and_tick) {
    PcpDa protocol;
    SimulatorOptions options;
    options.horizon = 1000;
    options.max_sim_ticks = budget;
    Simulator sim(PlanOf(set), &protocol, options);
    const SimResult result = sim.Run();
    EXPECT_EQ(result.status.ToString(),
              StrFormat("DeadlineExceeded: tick budget %lld exhausted at "
                        "tick %lld of 1000",
                        static_cast<long long>(budget),
                        static_cast<long long>(tick)));
  }
}

// --- The audit on broken engines -----------------------------------------
//
// Lying protocols whose violations persist across ticks that change no
// state. The audit re-derives its verdict only on ticks that do, and
// repeats it on the others, walked or leapt; these pins are the reports
// an audit of every tick gives (violation ticks past the 64-violation
// cap, suppressed count, audited ticks, kAuditViolation events).

/// "0-3,7,9-12": ascending ticks as runs of consecutive ticks.
std::string TickRanges(const std::vector<Tick>& ticks) {
  std::vector<std::string> runs;
  for (std::size_t i = 0; i < ticks.size();) {
    std::size_t j = i;
    while (j + 1 < ticks.size() && ticks[j + 1] == ticks[j] + 1) ++j;
    runs.push_back(
        i == j ? StrFormat("%lld", static_cast<long long>(ticks[i]))
               : StrFormat("%lld-%lld", static_cast<long long>(ticks[i]),
                           static_cast<long long>(ticks[j])));
    i = j + 1;
  }
  return Join(runs, ",");
}

/// The audit's outcome in one line: the ticks of the retained violations,
/// each distinct "check: detail" in first-seen order, the suppressed and
/// audited counts, and the ticks of the kAuditViolation trace events.
std::string AuditDigest(const SimResult& result) {
  std::vector<Tick> ticks;
  std::vector<std::string> distinct;
  for (const AuditViolation& v : result.audit.violations) {
    ticks.push_back(v.tick);
    const std::string line = v.check + ": " + v.detail;
    if (std::find(distinct.begin(), distinct.end(), line) ==
        distinct.end()) {
      distinct.push_back(line);
    }
  }
  std::vector<Tick> events;
  for (const TraceEvent& e :
       EventsOfKind(result.trace, TraceKind::kAuditViolation)) {
    events.push_back(e.tick);
  }
  return StrFormat("violations=%s {%s} suppressed=%lld audited=%lld "
                   "events=%s",
                   TickRanges(ticks).c_str(), Join(distinct, "; ").c_str(),
                   static_cast<long long>(result.audit.suppressed),
                   static_cast<long long>(result.audit.ticks_audited),
                   TickRanges(events).c_str());
}

/// Audits `set` under a fresh `P` for `horizon` ticks; with `walk`, a
/// dormant fault makes the run walk every tick.
template <typename P>
SimResult RunLying(const TransactionSet& set, Tick horizon, bool walk) {
  P protocol;
  SimulatorOptions options;
  options.horizon = horizon;
  options.audit = true;
  if (walk) options = WithDormantFault(std::move(options));
  Simulator sim(PlanOf(set), &protocol, options);
  return sim.Run();
}

/// Expects the walked and the leaping audited runs to agree, and returns
/// the leaping run's digest.
template <typename P>
std::string LyingDigest(const TransactionSet& set, Tick horizon) {
  const SimResult leap = RunLying<P>(set, horizon, false);
  const SimResult walk = RunLying<P>(set, horizon, true);
  EXPECT_FALSE(leap.status.ok());
  EXPECT_TRUE(leap.audit == walk.audit);
  EXPECT_TRUE(leap.trace == walk.trace);
  EXPECT_TRUE(leap.metrics == walk.metrics);
  EXPECT_EQ(leap.audit.ticks_audited, SimulatedTicks(leap.metrics));
  return AuditDigest(leap);
}

TEST(SimulatorTest, AuditRepeatsALeakedLockPastTheCap) {
  // The first job commits at the end of tick 3, inside its compute step,
  // so the tick that leaks the lock resolves no dispatch; every later
  // release blocks behind the leaked lock for good.
  TransactionSet set = MakeSet(
      {{.name = "T", .period = 20, .body = {Write(0), Compute(3)}}});
  EXPECT_EQ(LyingDigest<LockLeakingProtocol>(set, 200),
            "violations=3-66 {lock-holder-active: job 0 holds locks but is "
            "committed; lock-holder-active: job 0 holds locks but is "
            "retired} suppressed=133 audited=200 events=3-66");
}

/// PCP-DA that reports one fixed ceiling whatever the lock table holds.
class ConstantCeilingPcpDa : public PcpDa {
 public:
  Priority CurrentCeiling() const override { return Priority(100); }
};

TEST(SimulatorTest, AuditRepeatsAConstantWrongCeilingEveryTick) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 10, .body = {Read(0, 2), Compute(2)}},
      {.name = "B", .period = 15, .body = {Write(0, 2)}},
  });
  EXPECT_EQ(LyingDigest<ConstantCeilingPcpDa>(set, 150),
            "violations=0-63 {sysceil: protocol reports ceiling prio(100) "
            "but the lock table implies prio(1); sysceil: protocol reports "
            "ceiling prio(100) but the lock table implies dummy} "
            "suppressed=86 audited=150 events=0-63");
}

/// PCP-DA that never reports a ceiling: wrong exactly while a read lock
/// is held, right in the idle gaps between jobs.
class HiddenCeilingPcpDa : public PcpDa {
 public:
  Priority CurrentCeiling() const override { return Priority::Dummy(); }
};

TEST(SimulatorTest, AuditTracksAnIntermittentCeilingLieAcrossLeaps) {
  // Each T job holds its read lock for 10 ticks, then the gap to the next
  // release is clean and leapt; the lie comes and goes with the lock. W
  // never arrives within the horizon; it only gives d0 a write ceiling.
  TransactionSet set = MakeSet({
      {.name = "W", .period = 1000, .offset = 1000, .body = {Write(0)}},
      {.name = "T", .period = 25, .body = {Read(0, 4), Compute(6)}},
  });
  // The lock goes at the commit on tick 9, which resolves no dispatch.
  EXPECT_EQ(LyingDigest<HiddenCeilingPcpDa>(set, 300),
            "violations=0-8,25-33,50-58,75-83,100-108,125-133,150-158,175 "
            "{sysceil: protocol reports ceiling dummy but the lock table "
            "implies prio(2)} suppressed=44 audited=300 "
            "events=0-8,25-33,50-58,75-83,100-108,125-133,150-158,175");
}

#ifdef PCPDA_HAVE_MALLINFO2
/// Heap bytes still held by a finished PCP-DA Simulator plus its
/// SimResult after `horizon` ticks of `set`, trace and history off.
std::size_t HeldBytesAfterRun(const TransactionSet& set, Tick horizon) {
  const std::size_t before = mallinfo2().uordblks;
  PcpDa protocol;
  SimulatorOptions options;
  options.horizon = horizon;
  options.record_trace = false;
  options.record_history = false;
  Simulator sim(PlanOf(set), &protocol, options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_GT(result.metrics.TotalCommitted(), horizon / 1000);
  const std::size_t after = mallinfo2().uordblks;
  return after > before ? after - before : 0;
}
#endif

TEST(SimulatorTest, HeldMemoryDoesNotGrowWithHorizon) {
#ifdef PCPDA_HAVE_MALLINFO2
  WorkloadParams params;
  params.num_transactions = 8;
  params.num_items = 24;
  params.total_utilization = 0.45;
  Rng rng(1);
  StatusOr<TransactionSet> set = GenerateWorkload(params, rng);
  ASSERT_TRUE(set.ok()) << set.status().ToString();
  const std::size_t short_run = HeldBytesAfterRun(set.value(), 150000);
  const std::size_t long_run = HeldBytesAfterRun(set.value(), 1500000);
  // Freed retired jobs and ring-keyed slot maps: ten times the horizon
  // may not hold ten times the memory.
  EXPECT_LT(long_run, 2 * short_run + (std::size_t{1} << 20))
      << "150k ticks hold " << short_run << " B, 1.5M ticks hold "
      << long_run << " B";
#else
  GTEST_SKIP() << "glibc mallinfo2 unavailable (or a sanitizer owns malloc)";
#endif
}

}  // namespace
}  // namespace pcpda
