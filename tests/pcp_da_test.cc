#include <gtest/gtest.h>

#include "core/lock_compat.h"
#include "core/pcp_da.h"
#include "core/serialization_order.h"
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

/// The note of the grant event for (spec, item), or "" if none.
std::string GrantNote(const SimResult& result, SpecId spec, ItemId item,
                      LockMode mode) {
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kLockGrant && e.spec == spec &&
        e.item == item && e.mode == mode) {
      return e.note;
    }
  }
  return "";
}

// --- Locking conditions, isolated scenarios -------------------------------

TEST(PcpDaLockingTest, Lc1GrantsWriteOnFreeItem) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Write(0)}}});
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 5);
  EXPECT_EQ(GrantNote(result, 0, 0, LockMode::kWrite), "LC1");
}

TEST(PcpDaLockingTest, Lc1GrantsConcurrentWriters) {
  // Blind writes never conflict: the lower-priority writer locks x first,
  // the higher-priority writer still write-locks x and preempts.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0), Compute(1)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  EXPECT_EQ(CommitTime(result, 0, 0), 3);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaLockingTest, Lc1DeniesWriteOnReadLockedItem) {
  // L read-locks x; H's write of x must wait (Case 2: Read-Write).
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_GT(result.metrics.per_spec[0].blocked_ticks, 0);
  EXPECT_EQ(result.metrics.per_spec[0].conflict_blocks, 1);
  // H commits after L.
  EXPECT_GT(CommitTime(result, 0, 0), CommitTime(result, 1, 0));
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaLockingTest, Lc2GrantsReadUnderWriteLock) {
  // Case 1 (Write-Read): H reads x under L's write lock and commits first.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(0)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 10);
  EXPECT_EQ(GrantNote(result, 0, 0, LockMode::kRead), "LC2");
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
  EXPECT_LT(CommitTime(result, 0, 0), CommitTime(result, 1, 0));
  EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaLockingTest, WrGuardBlocksCase2Preemption) {
  // L write-locked x AND has read y which H will write: granting H's read
  // of x could not guarantee H commits first -> conflict blocking.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 2, .body = {Read(0), Write(1)}},
      {.name = "L",
       .offset = 0,
       .body = {Read(1), Write(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 12);
  // H's read of x is denied while L holds the write lock.
  bool saw_wr_guard_block = false;
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kBlock && e.spec == 0 && e.item == 0) {
      EXPECT_EQ(e.reason, BlockReason::kConflict);
      saw_wr_guard_block = true;
    }
  }
  // Note: H may instead be ceiling-blocked on Sysceil (y read-locked by L
  // raises Wceil(y)=P_H). Either way H must wait for L and the history
  // stays serializable.
  EXPECT_GT(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  EXPECT_GT(CommitTime(result, 0, 0), CommitTime(result, 1, 0));
  EXPECT_TRUE(IsSerializable(result.history));
  (void)saw_wr_guard_block;
}

TEST(PcpDaLockingTest, DecideAgreesWithTable1) {
  // L locks x at tick 0 or 1 and keeps it to its commit; H arrives at tick
  // 2 and requests x. Whether Decide grants H's request must follow
  // LockCompatibility, and the starred W/R cell must turn on
  // DataRead(L) ∩ WriteSet(H): L reads y and H writes y when `overlap`.
  struct Cell {
    const char* label;
    LockMode held;
    LockMode requested;
    bool overlap;
    Table1Compat compat;
    /// Decide's rule for H's request on x (grant note or block note).
    const char* rule;
  };
  const Cell cells[] = {
      {"R/W", LockMode::kRead, LockMode::kWrite, false, Table1Compat::kNotOk,
       "LC1-denied"},
      {"W/W", LockMode::kWrite, LockMode::kWrite, false, Table1Compat::kOk,
       "LC1"},
      {"W/R starred, disjoint", LockMode::kWrite, LockMode::kRead, false,
       Table1Compat::kConditional, "LC2"},
      {"W/R starred, overlapping", LockMode::kWrite, LockMode::kRead, true,
       Table1Compat::kConditional, "wr-guard"},
  };
  constexpr ItemId kX = 0;
  constexpr ItemId kY = 1;
  for (const Cell& cell : cells) {
    EXPECT_EQ(LockCompatibility(cell.held, cell.requested), cell.compat)
        << cell.label;
    std::vector<Step> low;
    std::vector<Step> high;
    if (cell.overlap) low.push_back(Read(kY));
    low.push_back(cell.held == LockMode::kRead ? Read(kX) : Write(kX));
    low.push_back(Compute(4));
    high.push_back(cell.requested == LockMode::kRead ? Read(kX) : Write(kX));
    if (cell.overlap) high.push_back(Write(kY));
    TransactionSet set = MakeSet({
        {.name = "H", .offset = 2, .body = high},
        {.name = "L", .offset = 0, .body = low},
    });
    const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 16);
    ASSERT_TRUE(result.status.ok()) << cell.label;
    std::string block_note;
    for (const TraceEvent& e :
         EventsOfKind(result.trace, TraceKind::kBlock, 0)) {
      if (e.item == kX && block_note.empty()) block_note = e.note;
    }
    const std::string grant_note = GrantNote(result, 0, kX, cell.requested);
    const bool granted_at_once = block_note.empty();
    const bool table1_allows =
        cell.compat == Table1Compat::kOk ||
        (cell.compat == Table1Compat::kConditional && !cell.overlap);
    EXPECT_EQ(granted_at_once, table1_allows)
        << cell.label << "\n" << FailureContext(set, result);
    EXPECT_EQ(granted_at_once ? grant_note : block_note, cell.rule)
        << cell.label;
    EXPECT_TRUE(IsSerializable(result.history)) << cell.label;
  }
}

TEST(PcpDaLockingTest, Lc3GrantsWhenItemCeilingBelowPriority) {
  // M's read of z (never written by anyone above M) proceeds although the
  // Sysceil (from L's read of y, Wceil(y)=P_H) is above P_M.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(1)}},        // writes y
      {.name = "M", .offset = 1, .body = {Read(2)}},         // reads z
      {.name = "L", .offset = 0, .body = {Read(1), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 14);
  EXPECT_EQ(GrantNote(result, 1, 2, LockMode::kRead), "LC3")
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.per_spec[1].blocked_ticks, 0);
}

TEST(PcpDaLockingTest, Lc4GrantsHighestWriterItself) {
  // M is itself the highest-priority writer of z (P_M == Wceil(z)); z has
  // no other reader and z is not in T*'s write set.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(1)}},
      {.name = "M", .offset = 1, .body = {Read(2), Write(2)}},
      {.name = "L", .offset = 0, .body = {Read(1), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 14);
  EXPECT_EQ(GrantNote(result, 1, 2, LockMode::kRead), "LC4")
      << FailureContext(set, result);
}

TEST(PcpDaLockingTest, TstarGuardBlocksWhenTstarWritesItem) {
  // Same as LC4 scenario but T* (= L's blocker-to-be... here the Sysceil
  // holder) will write z, so the guard must deny M's read.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(1)}},
      {.name = "M", .offset = 1, .body = {Read(2), Write(2)}},
      {.name = "L",
       .offset = 0,
       .body = {Read(1), Compute(2), Write(2)}},  // T* writes z too
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 16);
  // M is ceiling-blocked at t=1 instead of being granted.
  EXPECT_GT(result.metrics.per_spec[1].ceiling_blocks, 0)
      << FailureContext(set, result);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaLockingTest, CeilingBlockingStillOccursWhenNeeded) {
  // The paper's remaining (necessary) ceiling blocking: M must not read y
  // while L read-locks x whose Wceil >= P_M.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(0), Write(1)}},
      {.name = "M", .offset = 1, .body = {Read(1)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 14);
  EXPECT_EQ(result.metrics.per_spec[1].ceiling_blocks, 1)
      << FailureContext(set, result);
  // Single blocking: M waits only for L, then runs.
  EXPECT_EQ(CommitTime(result, 2, 0), 4);
  EXPECT_EQ(CommitTime(result, 1, 0), 5);
}

// --- Example 3 / Figure 2 -------------------------------------------------

TEST(PcpDaExampleTest, Example3MatchesFigure2) {
  const PaperExample example = Example3();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  ASSERT_TRUE(result.status.ok());
  // T1 commits at 3 and 8; T2 commits at 9.
  EXPECT_EQ(CommitTime(result, 0, 0), 3) << FailureContext(example.set, result);
  EXPECT_EQ(CommitTime(result, 0, 1), 8);
  EXPECT_EQ(CommitTime(result, 1, 0), 9);
  // No blocking at all for T1 (the paper's headline claim).
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
  EXPECT_EQ(result.metrics.per_spec[0].effective_blocking_ticks, 0);
  EXPECT_TRUE(result.metrics.AllDeadlinesMet());
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
}

// --- Example 4 / Figure 4 -------------------------------------------------

TEST(PcpDaExampleTest, Example4MatchesFigure4) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  ASSERT_TRUE(result.status.ok());
  // Narrated grants: T3 read-locks z at t=1 via LC4; T1 read-locks x at
  // t=4 via LC2; T3 write-locks z at t=2 via LC1.
  EXPECT_EQ(GrantNote(result, 2, kItemZ, LockMode::kRead), "LC4")
      << FailureContext(example.set, result);
  EXPECT_EQ(GrantNote(result, 0, kItemX, LockMode::kRead), "LC2");
  EXPECT_EQ(GrantNote(result, 2, kItemZ, LockMode::kWrite), "LC1");
  // Narrated commits: T3@3, T1@6, T4@9, T2@11.
  EXPECT_EQ(CommitTime(result, 2, 0), 3);
  EXPECT_EQ(CommitTime(result, 0, 0), 6);
  EXPECT_EQ(CommitTime(result, 3, 0), 9);
  EXPECT_EQ(CommitTime(result, 1, 0), 11);
  // Nobody blocks.
  for (const auto& m : result.metrics.per_spec) {
    EXPECT_EQ(m.blocked_ticks, 0);
  }
  // Max_Sysceil peaks at P2 (never P1), and serializability holds.
  EXPECT_EQ(result.metrics.max_ceiling, example.set.priority(1));
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Example 5 / deadlock avoidance ----------------------------------------

TEST(PcpDaExampleTest, Example5FullProtocolAvoidsDeadlock) {
  const PaperExample example = Example5();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  EXPECT_FALSE(result.deadlock_detected)
      << FailureContext(example.set, result);
  // TH is ceiling-blocked once; TL commits at 2, TH at 4.
  EXPECT_EQ(CommitTime(result, 1, 0), 2);
  EXPECT_EQ(CommitTime(result, 0, 0), 4);
  EXPECT_EQ(result.metrics.per_spec[0].ceiling_blocks, 1);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaExampleTest, Example5NaiveCondition2Deadlocks) {
  const PaperExample example = Example5();
  PcpDaOptions options;
  options.enable_tstar_guard = false;
  PcpDa naive(options);
  const SimResult result = RunWith(example.set, &naive, example.horizon);
  EXPECT_TRUE(result.deadlock_detected)
      << FailureContext(example.set, result);
  EXPECT_TRUE(result.metrics.halted_on_deadlock);
}

TEST(PcpDaExampleTest, Example5NaiveWithAbortRecoveryCompletes) {
  const PaperExample example = Example5();
  PcpDaOptions options;
  options.enable_tstar_guard = false;
  PcpDa naive(options);
  const SimResult result = RunWith(example.set, &naive, example.horizon,
                                   DeadlockPolicy::kAbortLowestPriority);
  EXPECT_TRUE(result.deadlock_detected);
  EXPECT_GT(result.metrics.TotalRestarts(), 0);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Example 1 under PCP-DA (the paper's motivating contrast) --------------

TEST(PcpDaExampleTest, Example1HasNoBlockingUnderPcpDa) {
  const PaperExample example = Example1();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  for (const auto& m : result.metrics.per_spec) {
    EXPECT_EQ(m.blocked_ticks, 0) << FailureContext(example.set, result);
  }
  // T1 arrives at 2 and runs immediately: commits at 4.
  EXPECT_EQ(CommitTime(result, 0, 0), 4);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- Protocol-wide invariants on the examples -------------------------------

TEST(PcpDaInvariantTest, NoRestartsEver) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
    EXPECT_EQ(result.metrics.TotalRestarts(), 0) << example.name;
  }
}

TEST(PcpDaInvariantTest, AllExamplesSerializableAndDeadlockFree) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
    EXPECT_FALSE(result.deadlock_detected) << example.name;
    EXPECT_TRUE(IsSerializable(result.history)) << example.name;
    EXPECT_TRUE(FindCommitOrderViolations(result.history).empty())
        << example.name;
  }
}

}  // namespace
}  // namespace pcpda
