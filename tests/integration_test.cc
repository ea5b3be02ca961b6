// Cross-module integration tests: simulator results vs the offline
// analyses, inherited-priority locking, trace/CSV consistency, and the
// end-to-end deadlock scenario the running-priority semantics fix.

#include <gtest/gtest.h>

#include "analysis/blocking.h"
#include "analysis/report.h"
#include "analysis/response_time.h"
#include "analysis/rm_bound.h"
#include "core/serialization_order.h"
#include "history/serialization_graph.h"
#include "test_util.h"
#include "trace/csv.h"

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs,
                       PriorityAssignment pa =
                           PriorityAssignment::kAsListed) {
  auto set = TransactionSet::Create(std::move(specs), pa);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

// --- The inherited-priority regression (DESIGN.md §4b) ----------------------

// Distilled from the random workload that deadlocked with base-priority
// locking conditions: T_low read-locks an item T_high writes; T_high
// blocks on it and donates its priority; T_mid read-locks items whose
// Wceil sits between low's base and high's priority; T_low then needs
// another read lock. With running priorities T_low clears the ceiling via
// LC2; with base priorities this would deadlock.
TEST(InheritedPriorityTest, BlockerClearsCeilingViaInheritance) {
  TransactionSet set = MakeSet({
      // T1 (highest): writes a (so Wceil(a) = P1).
      {.name = "T1", .offset = 3, .body = {Write(0)}},
      // T2: writes b (Wceil(b) = P2) and reads c later.
      {.name = "T2", .offset = 2, .body = {Read(3), Write(1)}},
      // T3 (lowest): read-locks a, then — while blocking T1 and running
      // at P1 — needs to read d.
      {.name = "T3",
       .offset = 0,
       .body = {Read(0), Compute(4), Read(2), Compute(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 20);
  EXPECT_FALSE(result.deadlock_detected) << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 3);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
}

// The exact two-party shape from the bug: T_low holds a read lock on x
// (written by T_high); T_high blocks on Wlock(x); T_low, inheriting, then
// read-locks y although T_high's read locks (taken via LC3 before
// blocking) raised the ceiling above T_low's base priority.
TEST(InheritedPriorityTest, TwoPartyNoDeadlock) {
  TransactionSet set = MakeSet({
      // TH: reads u,v via LC3, then writes x.
      {.name = "TH",
       .offset = 2,
       .body = {Read(1), Read(2), Write(0)}},
      // TM: writes u — gives u a mid ceiling P2 > P3.
      {.name = "TM", .offset = 30, .body = {Write(1), Write(2)}},
      // TL: read-locks x (Wceil = P1), long compute, then reads w.
      {.name = "TL",
       .offset = 0,
       .body = {Read(0), Compute(6), Read(3), Compute(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 40);
  EXPECT_FALSE(result.deadlock_detected) << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 3);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Analysis vs simulation on a periodic set --------------------------------

TEST(AnalysisVsSimTest, SimulatedBlockingWithinBoundsOverHyperperiod) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Read(0), Compute(1)}},
          {.name = "B",
           .period = 20,
           .body = {Write(0), Read(1), Compute(1)}},
          {.name = "C",
           .period = 40,
           .body = {Read(0), Write(1), Compute(3)}},
      },
      PriorityAssignment::kRateMonotonic);
  const Tick hyper = set.Hyperperiod();
  ASSERT_EQ(hyper, 40);
  for (ProtocolKind kind :
       {ProtocolKind::kPcpDa, ProtocolKind::kRwPcp, ProtocolKind::kCcp,
        ProtocolKind::kOpcp}) {
    const SimResult result = RunWith(set, kind, 3 * hyper);
    ASSERT_TRUE(result.status.ok());
    EXPECT_TRUE(result.metrics.AllDeadlinesMet()) << ToString(kind);
    const BlockingAnalysis analysis = ComputeBlocking(set, kind);
    for (SpecId i = 0; i < set.size(); ++i) {
      EXPECT_LE(result.metrics.per_spec[static_cast<std::size_t>(i)]
                    .max_effective_blocking,
                analysis.B(i))
          << ToString(kind) << " " << set.spec(i).name;
    }
  }
}

TEST(AnalysisVsSimTest, RtaPredictsMaxResponse) {
  // Synchronous release (offset 0) is the critical instant: the simulated
  // max response must never exceed the RTA fixpoint.
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 8, .body = {Read(0), Compute(1)}},
          {.name = "B", .period = 16, .body = {Write(0), Compute(2)}},
          {.name = "C", .period = 32, .body = {Read(0), Compute(4)}},
      },
      PriorityAssignment::kRateMonotonic);
  const BlockingAnalysis blocking =
      ComputeBlocking(set, ProtocolKind::kPcpDa);
  const auto rta = ResponseTimeAnalysis(set, blocking.AllB());
  ASSERT_TRUE(rta.ok());
  ASSERT_TRUE(rta->schedulable);
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 96);
  for (SpecId i = 0; i < set.size(); ++i) {
    EXPECT_LE(result.metrics.per_spec[static_cast<std::size_t>(i)]
                  .max_response,
              rta->per_spec[static_cast<std::size_t>(i)].response)
        << set.spec(i).name;
  }
}

TEST(AnalysisVsSimTest, LiuLaylandPassImpliesNoMisses) {
  // A set passing the sufficient test must meet every deadline in
  // simulation (checked across all phasings implicitly via offsets).
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 12, .body = {Read(0)}},
          {.name = "B", .period = 24, .body = {Write(0), Compute(1)}},
      },
      PriorityAssignment::kRateMonotonic);
  const BlockingAnalysis blocking =
      ComputeBlocking(set, ProtocolKind::kPcpDa);
  const auto ll = LiuLaylandTest(set, blocking.AllB());
  ASSERT_TRUE(ll.ok());
  ASSERT_TRUE(ll->schedulable);
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 240);
  EXPECT_TRUE(result.metrics.AllDeadlinesMet());
}

// --- Trace / CSV / history consistency ---------------------------------------

TEST(ConsistencyTest, BusyTicksMatchScheduleRows) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  for (SpecId i = 0; i < example.set.size(); ++i) {
    EXPECT_EQ(RunningTicks(result.trace, i),
              result.metrics.per_spec[static_cast<std::size_t>(i)]
                  .busy_ticks);
  }
}

TEST(ConsistencyTest, CommitsMatchHistory) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  EXPECT_EQ(result.history.committed().size(),
            static_cast<std::size_t>(result.metrics.TotalCommitted()));
  EXPECT_EQ(result.trace.EventsOfKind(TraceKind::kCommit).size(),
            result.history.committed().size());
}

TEST(ConsistencyTest, SerialWitnessRespectsOrderConstraints) {
  const PaperExample example = Example3();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  const auto graph = SerializationGraph::Build(result.history);
  const auto check = graph.CheckAcyclic();
  ASSERT_TRUE(check.serializable);
  auto pos = [&](JobId j) {
    for (std::size_t i = 0; i < check.serial_order.size(); ++i) {
      if (check.serial_order[i] == j) return i;
    }
    ADD_FAILURE() << "job missing from witness";
    return std::size_t{0};
  };
  for (const OrderConstraint& c :
       DeriveOrderConstraints(result.history)) {
    EXPECT_LT(pos(c.reader), pos(c.writer)) << c.DebugString();
  }
}

TEST(ConsistencyTest, ReportsRunOnPeriodicizedExample) {
  TransactionSet set = MakeSet(
      {
          {.name = "T1", .period = 20, .body = {Read(0), Compute(1)}},
          {.name = "T2", .period = 30, .body = {Write(1), Compute(1)}},
          {.name = "T3",
           .period = 40,
           .body = {Read(2), Write(2)}},
          {.name = "T4",
           .period = 60,
           .body = {Read(1), Write(0), Compute(3)}},
      },
      PriorityAssignment::kRateMonotonic);
  const std::string report = SchedulabilityReport(set);
  EXPECT_NE(report.find("PCP-DA"), std::string::npos);
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 120);
  EXPECT_TRUE(result.metrics.AllDeadlinesMet())
      << FailureContext(set, result);
}

}  // namespace
}  // namespace pcpda
