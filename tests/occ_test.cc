#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "protocols/occ.h"
#include "test_util.h"

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs) {
  auto set = TransactionSet::Create(std::move(specs),
                                    PriorityAssignment::kAsListed);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

// --- OCC-BC -------------------------------------------------------------

TEST(OccBcTest, NeverBlocks) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0), Read(1)}},
      {.name = "L", .offset = 0, .body = {Read(0), Write(1), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccBc, 14);
  for (const auto& m : result.metrics.per_spec) {
    EXPECT_EQ(m.blocked_ticks, 0);
  }
  EXPECT_FALSE(result.deadlock_detected);
}

TEST(OccBcTest, BroadcastCommitAbortsReader) {
  // L reads x; H commits a write of x while L still runs -> L restarts.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(4)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccBc, 14);
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
  // The restarted L re-read x and must have observed H's value.
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  // H is job 1 (L, released at t=0, is job 0).
  EXPECT_EQ(reader->ops[0].observed.writer, 1);
}

TEST(OccBcTest, NonConflictingCommitLeavesOthersAlone) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(2)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(4)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccBc, 14);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
}

TEST(OccBcTest, ReadOnlyCommitAbortsNobody) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(4)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccBc, 14);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
}

TEST(OccBcTest, CrossedAccessResolvesBySacrifice) {
  // The Example-5 pattern: under OCC the first committer wins.
  const PaperExample example = Example5();
  const SimResult result = RunExample(example, ProtocolKind::kOccBc);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- OCC-DA -------------------------------------------------------------

TEST(OccDaTest, ConstraintInsteadOfAbort) {
  // L reads x, H overwrites x and commits; L has no writes into H's reads
  // and never re-reads x -> L survives with a before-constraint.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(4)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccDa, 14);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
  // L read the ORIGINAL x although it committed after H: the adjusted
  // serialization order puts L first.
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 1) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ops[0].observed.writer, kInvalidJob);
  const auto replay = ReplaySerialWitness(result.history, set.item_count());
  EXPECT_TRUE(replay.ok());
}

TEST(OccDaTest, ContradictoryConstraintAborts) {
  // L reads x (overwritten by H) AND statically writes y which H read:
  // L would have to serialize both before and after H -> restart.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(1), Write(0)}},
      {.name = "L",
       .offset = 0,
       .body = {Read(0), Compute(3), Write(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccDa, 16);
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(OccDaTest, RereadHazardAborts) {
  // L read x and will read x again after H's overwrite commits: the old
  // version is gone in a single-version store -> restart.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L",
       .offset = 0,
       .body = {Read(0), Compute(3), Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccDa, 16);
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1)
      << FailureContext(set, result);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(OccDaTest, SnapshotCheckBlocksLaterState) {
  // L (constrained before H's commit) later reads an item H also wrote:
  // the value is newer than L's snapshot -> self-abort, then clean rerun.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0), Write(2)}},
      {.name = "L",
       .offset = 0,
       .body = {Read(0), Compute(4), Read(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOccDa, 20);
  EXPECT_GE(result.metrics.per_spec[1].restarts, 1)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
  const auto replay = ReplaySerialWitness(result.history, set.item_count());
  EXPECT_TRUE(replay.ok());
}

TEST(OccDaTest, FewerRestartsThanBroadcastCommit) {
  // A workload where OCC-BC keeps killing a long reader that OCC-DA can
  // tolerate via constraints.
  TransactionSet set = MakeSet({
      {.name = "W", .period = 6, .body = {Write(0)}},
      {.name = "R", .offset = 0, .body = {Read(0), Compute(13)}},
  });
  const SimResult bc = RunWith(set, ProtocolKind::kOccBc, 40);
  const SimResult da = RunWith(set, ProtocolKind::kOccDa, 40);
  EXPECT_GT(bc.metrics.per_spec[1].restarts, 0);
  EXPECT_EQ(da.metrics.per_spec[1].restarts, 0)
      << FailureContext(set, da);
  EXPECT_LT(da.metrics.TotalRestarts(), bc.metrics.TotalRestarts());
  EXPECT_TRUE(IsSerializable(bc.history));
  EXPECT_TRUE(IsSerializable(da.history));
  EXPECT_TRUE(ReplaySerialWitness(da.history, set.item_count()).ok());
}

/// The restarts of `spec`'s jobs as (tick, note) pairs, in trace order.
std::vector<std::pair<Tick, std::string>> RestartsOf(const SimResult& result,
                                                     SpecId spec) {
  std::vector<std::pair<Tick, std::string>> restarts;
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kRestart && e.spec == spec) {
      restarts.emplace_back(e.tick, e.note);
    }
  }
  return restarts;
}

TEST(OccDaTest, SnapshotConstraintRestartsReaderAtItsNextRead) {
  // R reads x at t=0; H preempts it, writes x and y, and commits at the
  // end of tick 2 (its commit event is stamped 3). OCC-DA tolerates the
  // read-only R with a snapshot constraint (R serializes before H)
  // instead of restarting it. R's later read of y would observe H's
  // write, past its snapshot, so that request aborts R itself (t=7).
  // OCC-BC restarts R at H's commit instead.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0), Write(1)}},
      {.name = "R", .offset = 0, .body = {Read(0), Compute(4), Read(1)}},
  });
  const SimResult da = RunWith(set, ProtocolKind::kOccDa, 12);
  EXPECT_EQ(CommitTime(da, 0, 0), 3);
  EXPECT_EQ(RestartsOf(da, 1),
            (std::vector<std::pair<Tick, std::string>>{
                {7, "occ-da-constraint"}}))
      << FailureContext(set, da);
  EXPECT_TRUE(IsSerializable(da.history));

  const SimResult bc = RunWith(set, ProtocolKind::kOccBc, 12);
  EXPECT_EQ(CommitTime(bc, 0, 0), 3);
  EXPECT_EQ(RestartsOf(bc, 1),
            (std::vector<std::pair<Tick, std::string>>{{2, "validation"}}))
      << FailureContext(set, bc);
  EXPECT_TRUE(IsSerializable(bc.history));
}

// --- Both OCC protocols on the paper examples ------------------------------

TEST(OccInvariantTest, ExamplesSerializableNoDeadlocksNoBlocking) {
  for (ProtocolKind kind : {ProtocolKind::kOccBc, ProtocolKind::kOccDa}) {
    for (const PaperExample& example :
         {Example1(), Example3(), Example4(), Example5()}) {
      const SimResult result = RunExample(example, kind);
      EXPECT_FALSE(result.deadlock_detected)
          << ToString(kind) << " " << example.name;
      EXPECT_TRUE(IsSerializable(result.history))
          << ToString(kind) << " " << example.name;
      const auto replay =
          ReplaySerialWitness(result.history, example.set.item_count());
      EXPECT_TRUE(replay.ok()) << ToString(kind) << " " << example.name;
      for (const auto& m : result.metrics.per_spec) {
        EXPECT_EQ(m.blocked_ticks, 0) << ToString(kind);
      }
    }
  }
}

}  // namespace
}  // namespace pcpda
