#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/pcp_da.h"
#include "history/serialization_graph.h"
#include "protocols/two_pl_pi.h"
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
  Simulator sim(&set, &protocol, SimulatorOptions{});
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
  EXPECT_EQ(result.trace.EventsOfKind(TraceKind::kDeadlineMiss).size(), 1u);
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
  Simulator sim(&set, protocol.get(), options);
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
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.metrics.halted_on_miss);
  EXPECT_LT(result.trace.ticks().size(), 20u);
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
  EXPECT_EQ(result.trace.ticks().size(), 7u);
  for (std::size_t t = 0; t < 7; ++t) {
    EXPECT_EQ(result.trace.ticks()[t].tick, static_cast<Tick>(t));
  }
}

TEST(SimulatorTest, IdleFastForwardMatchesPerTickEngine) {
  // Sparse workload: 2 busy ticks then a 98-tick idle gap, every period.
  // Without an auditor the core fast-forwards the gaps; with one it walks
  // every tick. Both paths must report byte-identical results.
  TransactionSet set = MakeSet(
      {{.name = "Sparse", .period = 100, .body = {Read(0), Write(1)}}});
  auto run = [&set](bool audit) {
    auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
    SimulatorOptions options;
    options.horizon = 1000;
    options.audit = audit;
    Simulator sim(&set, protocol.get(), options);
    return sim.Run();
  };
  const SimResult fast = run(false);
  const SimResult slow = run(true);
  ASSERT_TRUE(fast.status.ok());
  ASSERT_TRUE(slow.status.ok());
  EXPECT_EQ(fast.metrics.DebugString(set), slow.metrics.DebugString(set));
  EXPECT_EQ(fast.trace.DebugString(), slow.trace.DebugString());
  EXPECT_EQ(fast.metrics.idle_ticks, 1000 - 10 * 2);
  // Skipped ticks still produce their idle TickRecords, consecutively.
  ASSERT_EQ(fast.trace.ticks().size(), 1000u);
  for (std::size_t t = 0; t < 1000; ++t) {
    EXPECT_EQ(fast.trace.ticks()[t].tick, static_cast<Tick>(t));
    EXPECT_EQ(fast.trace.ticks()[t].running_job,
              slow.trace.ticks()[t].running_job);
  }
}

TEST(SimulatorTest, FastForwardStopsAtHorizonWithNoMoreArrivals) {
  // One-shot job, huge idle tail: the run must still account for every
  // tick up to the horizon, not stop at the last arrival.
  TransactionSet set = MakeSet(
      {{.name = "Once", .period = 0, .offset = 3, .body = {Compute(2)}}});
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 5000;
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.idle_ticks, 5000 - 2);
  EXPECT_EQ(result.trace.ticks().size(), 5000u);
  EXPECT_EQ(result.trace.ticks().back().tick, 4999);
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
  Simulator sim(&set, protocol.get(), options);
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
  Simulator sim(&set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_TRUE(result.trace.events().empty());
  EXPECT_TRUE(result.trace.ticks().empty());
  EXPECT_TRUE(result.history.committed().empty());
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(SimulatorTest, LockReacquisitionNotNeededWithinJob) {
  // Read x twice: the second read reuses the held lock.
  TransactionSet set =
      MakeSet({{.name = "T", .body = {Read(0), Compute(1), Read(0)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(result.trace.EventsOfKind(TraceKind::kLockGrant).size(), 1u);
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
  Simulator sim(&set, &protocol, options);
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
