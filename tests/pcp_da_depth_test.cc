// Deeper PCP-DA coverage: multi-writer interleavings, lock upgrades,
// backlog handling, inheritance chains, and interplay with the
// deadline-miss policies — beyond the paper's worked examples.

#include <gtest/gtest.h>

#include "core/pcp_da.h"
#include "core/serialization_order.h"
#include "history/replay_checker.h"
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

SimResult RunDa(const TransactionSet& set, Tick horizon) {
  return RunWith(set, ProtocolKind::kPcpDa, horizon);
}

TEST(PcpDaDepthTest, ThreeConcurrentWritersAllCommit) {
  // Three blind writers of the same item coexist; the final value belongs
  // to the last committer.
  TransactionSet set = MakeSet({
      {.name = "A", .offset = 2, .body = {Write(0), Compute(1)}},
      {.name = "B", .offset = 1, .body = {Write(0), Compute(3)}},
      {.name = "C", .offset = 0, .body = {Write(0), Compute(5)}},
  });
  const SimResult result = RunDa(set, 20);
  EXPECT_EQ(result.metrics.TotalCommitted(), 3);
  for (const auto& m : result.metrics.per_spec) {
    EXPECT_EQ(m.blocked_ticks, 0);
  }
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(ReplaySerialWitness(result.history, set.item_count()).ok());
}

TEST(PcpDaDepthTest, ReadThenWriteUpgradeOfOwnItem) {
  // A transaction upgrades its own read lock to a write lock: LC1 must
  // not see its own read lock as a conflict.
  TransactionSet set = MakeSet({
      {.name = "T", .body = {Read(0), Compute(1), Write(0)}},
  });
  const SimResult result = RunDa(set, 10);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
}

TEST(PcpDaDepthTest, UpgradeBlockedByOtherReader) {
  // H and L both read x; L then wants to write x and must wait for H's
  // read lock even though H has LOWER priority... (H here arrives later
  // and is higher priority; L's upgrade waits until H commits).
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(0), Compute(2)}},
      {.name = "L", .offset = 0, .body = {Read(0), Write(0)}},
  });
  const SimResult result = RunDa(set, 12);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  // L's write of x waits for H (conflict with H's read lock).
  EXPECT_GT(result.metrics.per_spec[1].blocked_ticks, 0)
      << FailureContext(set, result);
  EXPECT_GT(CommitTime(result, 1, 0), CommitTime(result, 0, 0));
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaDepthTest, CeilingPreventsChainedBlocking) {
  // An attempted two-level chain (H waits on M waits on L) cannot form
  // under PCP-DA: M is ceiling-blocked at its FIRST lock request (L's
  // read of z carries Wceil(z) = P_M), so M never holds the read lock on
  // y and H never blocks at all — Theorem 1 in action.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 4, .body = {Write(1)}},
      {.name = "X", .offset = 5, .body = {Compute(5)}},
      {.name = "M",
       .offset = 2,
       .body = {Read(1), Compute(2), Write(2)}},
      {.name = "L", .offset = 0, .body = {Read(2), Compute(4)}},
  });
  const SimResult result = RunDa(set, 24);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalCommitted(), 4);
  // H never blocks.
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  // M is blocked exactly once (single blocking), by L alone.
  EXPECT_EQ(result.metrics.per_spec[2].ceiling_blocks +
                result.metrics.per_spec[2].conflict_blocks,
            1);
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kBlock && e.spec == 2) {
      ASSERT_EQ(e.others.size(), 1u);
      const auto arrival =
          result.trace.FirstEvent(TraceKind::kArrival, e.others[0]);
      ASSERT_TRUE(arrival.has_value());
      EXPECT_EQ(arrival->spec, 3);  // the blocker is L
    }
  }
  // M's effective blocking respects the Section-9 bound (B_M <= C_L = 5).
  EXPECT_LE(result.metrics.per_spec[2].max_effective_blocking, 5);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaDepthTest, BacklogRunsFifoWithinSpec) {
  // Period shorter than execution time: instances pile up and must
  // commit in release order.
  TransactionSet set = MakeSet({
      {.name = "T", .period = 2, .body = {Read(0), Compute(2)}},
  });
  const SimResult result = RunDa(set, 20);
  Tick previous = -1;
  for (int instance = 0; instance < 5; ++instance) {
    const Tick commit = CommitTime(result, 0, instance);
    if (commit < 0) break;
    EXPECT_GT(commit, previous);
    previous = commit;
  }
  EXPECT_GT(result.metrics.per_spec[0].deadline_misses, 0);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaDepthTest, DropPolicyReleasesLocksCleanly) {
  // A low-priority reader is dropped at its deadline while holding a
  // read lock; the pending writer then proceeds.
  TransactionSpec reader{.name = "R",
                         .period = 6,
                         .body = {Read(0), Compute(5)}};
  reader.relative_deadline = 3;
  TransactionSpec hog{.name = "HOG", .offset = 0, .body = {Compute(3)}};
  TransactionSpec writer{.name = "W", .offset = 4, .body = {Write(0)}};
  // Priorities: HOG > W > R? We want R to start, get preempted, miss.
  auto made = TransactionSet::Create({hog, writer, reader},
                                     PriorityAssignment::kAsListed);
  ASSERT_TRUE(made.ok());
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 24;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  Simulator sim(PlanOf(*made), protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_GT(result.metrics.per_spec[2].dropped, 0);
  EXPECT_GT(result.metrics.per_spec[1].committed, 0);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaDepthTest, ReaderUnderTwoWriteLocks) {
  // Both L1 and L2 hold write locks on x (blind writes); H reads x and
  // must pass the wr-guard against BOTH holders.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 2, .body = {Read(0)}},
      {.name = "L1", .offset = 1, .body = {Write(0), Compute(4)}},
      {.name = "L2", .offset = 0, .body = {Write(0), Compute(6)}},
  });
  const SimResult result = RunDa(set, 20);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  // H reads the initial value (both writes still in workspaces).
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 0) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ops[0].observed.writer, kInvalidJob);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
}

TEST(PcpDaDepthTest, WrGuardAgainstSecondWriterOnly) {
  // L1's write lock on x is harmless, but L2 (also write-locking x) has
  // read an item H writes: the wr-guard must block H because of L2 alone.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 2, .body = {Read(0), Write(1)}},
      {.name = "L1", .offset = 1, .body = {Write(0), Compute(5)}},
      {.name = "L2",
       .offset = 0,
       .body = {Read(2), Write(0), Compute(5)}},
  });
  // DataRead(L2) = {2}; WriteSet(H) = {1} -> disjoint, so H is fine!
  // Change: L2 reads item 1 which H writes.
  TransactionSet set2 = MakeSet({
      {.name = "H", .offset = 2, .body = {Read(0), Write(1)}},
      {.name = "L1", .offset = 1, .body = {Write(0), Compute(5)}},
      {.name = "L2",
       .offset = 0,
       .body = {Read(1), Write(0), Compute(5)}},
  });
  (void)set;
  const SimResult result = RunWith(set2, ProtocolKind::kPcpDa, 24);
  bool saw_wr_guard = false;
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kBlock && e.spec == 0 &&
        e.note == "wr-guard") {
      saw_wr_guard = true;
      // Only L2 (job 0, released at t=0) blocks H.
      EXPECT_EQ(e.others.size(), 1u);
    }
  }
  EXPECT_TRUE(saw_wr_guard) << FailureContext(set2, result);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_FALSE(result.deadlock_detected);
}

TEST(PcpDaDepthTest, Lc4DeniedWhenAnotherReaderHoldsItem) {
  // LC4 requires No_Rlock(x). A HIGHER-priority reader R holds z when M
  // (the highest-priority writer of z, P_M == Wceil(z)) asks to read it:
  // LC2 fails (R's read lock raises Sysceil to Wceil(z) = P_M), LC3
  // fails, and LC4's No_Rlock(z) fails — M waits for R. (A lower-priority
  // second reader is impossible here by Lemma 5.)
  TransactionSet set = MakeSet({
      {.name = "R", .offset = 0, .body = {Read(2), Compute(6)}},
      {.name = "M", .offset = 2, .body = {Read(2), Write(2)}},
  });
  const SimResult result = RunDa(set, 20);
  EXPECT_GT(result.metrics.per_spec[1].blocked_ticks, 0)
      << FailureContext(set, result);
  // M proceeds right after R commits.
  EXPECT_EQ(CommitTime(result, 0, 0), 7);
  EXPECT_EQ(CommitTime(result, 1, 0), 9);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(PcpDaDepthTest, SporadicArrivalsKeepTheorems) {
  TransactionSpec a{.name = "A", .period = 7, .body = {Read(0), Write(1)}};
  TransactionSpec b{.name = "B",
                    .period = 13,
                    .body = {Read(1), Write(0), Compute(2)}};
  TransactionSpec c{.name = "C",
                    .period = 29,
                    .body = {Read(0), Read(1), Compute(4)}};
  auto set = TransactionSet::Create({a, b, c});
  ASSERT_TRUE(set.ok());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const ArrivalSchedule schedule =
        ArrivalSchedule::Sporadic(*set, 600, 0.4, rng);
    auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
    SimulatorOptions options;
    options.horizon = 600;
    options.arrival_schedule = &schedule;
    Simulator sim(PlanOf(*set), protocol.get(), options);
    const SimResult result = sim.Run();
    EXPECT_FALSE(result.deadlock_detected) << "seed " << seed;
    EXPECT_EQ(result.metrics.TotalRestarts(), 0);
    EXPECT_TRUE(IsSerializable(result.history));
    EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
    EXPECT_TRUE(
        ReplaySerialWitness(result.history, set->item_count()).ok());
  }
}

}  // namespace
}  // namespace pcpda
