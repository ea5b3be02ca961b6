#include <gtest/gtest.h>

#include "history/serialization_graph.h"
#include "test_util.h"

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs) {
  auto set = TransactionSet::Create(std::move(specs),
                                    PriorityAssignment::kAsListed);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

// --- Core locking semantics --------------------------------------------

TEST(RwPcpTest, GrantsWhenNothingLocked) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Read(0), Write(1)}}});
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 6);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
}

TEST(RwPcpTest, WriteLockRaisesAceilAndBlocksReaders) {
  // L write-locks x; H's read is conflict-blocked until L commits
  // (update-in-place: no reading under write locks).
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(0)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 10);
  EXPECT_EQ(result.metrics.per_spec[0].conflict_blocks, 1)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.per_spec[0].effective_blocking_ticks, 2);
  EXPECT_EQ(CommitTime(result, 1, 0), 3);
  EXPECT_EQ(CommitTime(result, 0, 0), 4);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(RwPcpTest, SharedReadsAllowedAbovewceil) {
  // Two readers of x share the lock when Wceil(x) is below both
  // priorities (nobody writes x).
  TransactionSet set = MakeSet({
      {.name = "A", .offset = 1, .body = {Read(0), Compute(1)}},
      {.name = "B", .offset = 0, .body = {Read(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 10);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  EXPECT_EQ(CommitTime(result, 0, 0), 3);
}

TEST(RwPcpTest, ReadLockBlocksLowerPriorityReaderOfOtherItem) {
  // Ceiling blocking: L2 cannot read y while L1 read-locks x with
  // Wceil(x) = P_H >= P_L2 — even though y is free.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(0)}},
      {.name = "L2", .offset = 1, .body = {Read(1)}},
      {.name = "L1", .offset = 0, .body = {Read(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 14);
  EXPECT_EQ(result.metrics.per_spec[1].ceiling_blocks, 1)
      << FailureContext(set, result);
}

TEST(RwPcpTest, UpgradeOwnReadToWrite) {
  // A transaction read-locks z then write-locks z; its own lock must not
  // stand in its way.
  TransactionSet set = MakeSet({{.name = "T", .body = {Read(0), Write(0)}}});
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 6);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
}

TEST(RwPcpTest, NoDeadlockOnCrossedAccess) {
  // The Example-5 access pattern: RW-PCP's ceilings prevent the deadlock.
  TransactionSet set = MakeSet({
      {.name = "TH", .offset = 1, .body = {Read(1), Write(0)}},
      {.name = "TL", .offset = 0, .body = {Read(0), Write(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, 12);
  EXPECT_FALSE(result.deadlock_detected)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Example 1 / Figure 1 ---------------------------------------------------

TEST(RwPcpExampleTest, Example1MatchesFigure1) {
  const PaperExample example = Example1();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  ASSERT_TRUE(result.status.ok());
  // T2 is ceiling-blocked at t=1, T1 conflict-blocked at t=2, both by T3.
  EXPECT_EQ(result.metrics.per_spec[1].ceiling_blocks, 1)
      << FailureContext(example.set, result);
  EXPECT_EQ(result.metrics.per_spec[0].conflict_blocks, 1);
  // T3 commits at 3 (runs 0..3 via inherited priority), then T1 (t=3..5),
  // then T2 (t=5..7).
  EXPECT_EQ(CommitTime(result, 2, 0), 3);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_EQ(CommitTime(result, 1, 0), 7);
  // Effective blocking: T1 one tick (t=2..3), T2 two ticks (t=1..3).
  EXPECT_EQ(result.metrics.per_spec[0].effective_blocking_ticks, 1);
  EXPECT_EQ(result.metrics.per_spec[1].effective_blocking_ticks, 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Example 3 / Figure 3 ---------------------------------------------------

TEST(RwPcpExampleTest, Example3MatchesFigure3) {
  const PaperExample example = Example3();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  ASSERT_TRUE(result.status.ok());
  // T1#0 is blocked t=1..5 (worst-case effective blocking 4) and misses
  // its deadline at t=6; T2 commits at 5.
  EXPECT_EQ(result.metrics.per_spec[0].max_effective_blocking, 4)
      << FailureContext(example.set, result);
  EXPECT_EQ(result.metrics.per_spec[0].deadline_misses, 1);
  EXPECT_EQ(CommitTime(result, 1, 0), 5);
  EXPECT_EQ(CommitTime(result, 0, 0), 7);
  const auto misses = EventsOfKind(result.trace, TraceKind::kDeadlineMiss);
  ASSERT_EQ(misses.size(), 1u);
  EXPECT_EQ(misses[0].tick, 6);
  EXPECT_EQ(misses[0].spec, 0);
  EXPECT_EQ(misses[0].instance, 0);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Example 4 / Figure 5 ---------------------------------------------------

TEST(RwPcpExampleTest, Example4MatchesFigure5) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  ASSERT_TRUE(result.status.ok());
  // T3 ceiling-blocked with effective blocking 4; T1 conflict-blocked 1.
  EXPECT_EQ(result.metrics.per_spec[2].ceiling_blocks, 1)
      << FailureContext(example.set, result);
  EXPECT_EQ(result.metrics.per_spec[2].effective_blocking_ticks, 4);
  EXPECT_EQ(result.metrics.per_spec[0].conflict_blocks, 1);
  EXPECT_EQ(result.metrics.per_spec[0].effective_blocking_ticks, 1);
  // T4 commits at 5 (inheriting), T1 at 7, T3 at 9, T2 at 11.
  EXPECT_EQ(CommitTime(result, 3, 0), 5);
  EXPECT_EQ(CommitTime(result, 0, 0), 7);
  EXPECT_EQ(CommitTime(result, 2, 0), 9);
  EXPECT_EQ(CommitTime(result, 1, 0), 11);
  // Max_Sysceil reaches P1 (vs P2 under PCP-DA) — the push-down argument.
  EXPECT_EQ(result.metrics.max_ceiling, example.set.priority(0));
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Single blocking across the examples ------------------------------------

TEST(RwPcpInvariantTest, ExamplesDeadlockFreeSerializableNoRestarts) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
    EXPECT_FALSE(result.deadlock_detected) << example.name;
    EXPECT_EQ(result.metrics.TotalRestarts(), 0) << example.name;
    EXPECT_TRUE(IsSerializable(result.history)) << example.name;
  }
}

}  // namespace
}  // namespace pcpda
