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

// --- OPCP (original PCP, exclusive locks) -----------------------------------

TEST(OpcpTest, BlocksEvenReadReadSharing) {
  // Two readers of x: OPCP treats every lock as exclusive, so the second
  // reader blocks (read sharing is RW-PCP's improvement).
  TransactionSet set = MakeSet({
      {.name = "A", .offset = 1, .body = {Read(0), Compute(1)}},
      {.name = "B", .offset = 0, .body = {Read(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOpcp, 12);
  EXPECT_GT(result.metrics.per_spec[0].blocked_ticks, 0)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
}

TEST(OpcpTest, CeilingBlockingOnFreeItem) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(0)}},
      {.name = "M", .offset = 1, .body = {Read(1)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kOpcp, 14);
  EXPECT_EQ(result.metrics.per_spec[1].ceiling_blocks, 1)
      << FailureContext(set, result);
}

TEST(OpcpTest, ExamplesDeadlockFreeAndSerializable) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const SimResult result = RunExample(example, ProtocolKind::kOpcp);
    EXPECT_FALSE(result.deadlock_detected) << example.name;
    EXPECT_TRUE(IsSerializable(result.history)) << example.name;
    EXPECT_EQ(result.metrics.TotalRestarts(), 0) << example.name;
  }
}

// --- CCP ---------------------------------------------------------------

TEST(CcpTest, EarlyReleaseHappens) {
  // T holds x (high ceiling) and then only computes: CCP releases x right
  // after its last use; RW-PCP would hold it to commit.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 9, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(4)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kCcp, 14);
  const auto releases =
      EventsOfKind(result.trace, TraceKind::kEarlyRelease);
  ASSERT_EQ(releases.size(), 1u) << FailureContext(set, result);
  EXPECT_EQ(releases[0].item, 0);
  // Released during the tick in which the read step completes.
  EXPECT_EQ(releases[0].tick, 0);
}

TEST(CcpTest, EarlyReleaseShortensBlocking) {
  // M arrives while L computes: under RW-PCP M is ceiling-blocked until
  // L commits; under CCP the lock on x is already gone.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 19, .body = {Write(0)}},
      {.name = "M", .offset = 2, .body = {Read(1)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(5)}},
  });
  const SimResult ccp = RunWith(set, ProtocolKind::kCcp, 24);
  const SimResult rw = RunWith(set, ProtocolKind::kRwPcp, 24);
  EXPECT_EQ(ccp.metrics.per_spec[1].blocked_ticks, 0)
      << FailureContext(set, ccp);
  EXPECT_GT(rw.metrics.per_spec[1].blocked_ticks, 0);
}

TEST(CcpTest, NoEarlyReleaseBeforeLastAcquisition) {
  // L will later read y: x must be kept until the growing phase ends
  // (releasing earlier would leave two-phase locking).
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 19, .body = {Write(1)}},   // Wceil(y)=P1
      {.name = "M", .offset = 18, .body = {Write(0)}},   // Aceil(x)=P2
      {.name = "L",
       .offset = 0,
       .body = {Read(0), Compute(2), Read(1), Compute(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kCcp, 24);
  const auto releases =
      EventsOfKind(result.trace, TraceKind::kEarlyRelease);
  // The last acquisition (Read(1)) completes during tick 3: no release of
  // x before that, and both items go at tick 3.
  ASSERT_EQ(releases.size(), 2u) << FailureContext(set, result);
  for (const TraceEvent& e : releases) {
    EXPECT_EQ(e.tick, 3) << FailureContext(set, result);
  }
}

TEST(CcpTest, ExamplesSerializableDeadlockFree) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const SimResult result = RunExample(example, ProtocolKind::kCcp);
    EXPECT_FALSE(result.deadlock_detected) << example.name;
    EXPECT_TRUE(IsSerializable(result.history)) << example.name;
  }
}

// --- 2PL-PI -------------------------------------------------------------

TEST(TwoPlPiTest, SharedReadsAndConflictBlocking) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Read(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 10);
  EXPECT_EQ(result.metrics.per_spec[0].conflict_blocks, 1);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlPiTest, DeadlocksOnCrossedAccess) {
  // The classic deadlock PCPs exist to prevent.
  TransactionSet set = MakeSet({
      {.name = "TH", .offset = 1, .body = {Read(1), Write(0)}},
      {.name = "TL", .offset = 0, .body = {Read(0), Write(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 12);
  EXPECT_TRUE(result.deadlock_detected)
      << FailureContext(set, result);
  EXPECT_TRUE(result.metrics.halted_on_deadlock);
}

TEST(TwoPlPiTest, DeadlockResolvedByAbort) {
  TransactionSet set = MakeSet({
      {.name = "TH", .offset = 1, .body = {Read(1), Write(0)}},
      {.name = "TL", .offset = 0, .body = {Read(0), Write(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 14,
                                   DeadlockPolicy::kAbortLowestPriority);
  EXPECT_TRUE(result.deadlock_detected);
  // The lower-priority member (TL) restarts; both eventually commit.
  EXPECT_GT(result.metrics.per_spec[1].restarts, 0);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlPiTest, RecurringDeadlocksKeepTicksVictimsAndEvents) {
  // A waits for C (item 0), C for B (item 1), B for A (item 2): a
  // three-way cycle closes once every 60 ticks, each time by the last of
  // three wait edges added over several dispatch resolutions. The
  // deadlock scan runs only after an edge is added, so this pins that it
  // still finds every cycle at the tick it closes, with the same victim
  // and events (values from the engine that searched after every
  // resolution).
  TransactionSet set = MakeSet({
      {.name = "A",
       .period = 15,
       .offset = 2,
       .body = {Write(2, 1), Compute(1), Write(0, 1)}},
      {.name = "B",
       .period = 15,
       .offset = 1,
       .body = {Write(1, 1), Compute(2), Write(2, 1)}},
      {.name = "C",
       .period = 20,
       .body = {Read(3), Write(0, 1), Compute(3), Write(1, 1)}},
      {.name = "D",
       .period = 30,
       .offset = 3,
       .body = {Write(3, 1), Compute(2), Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 400,
                                   DeadlockPolicy::kAbortLowestPriority);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  std::vector<std::string> deadlock_events;
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind == TraceKind::kDeadlock ||
        (event.kind == TraceKind::kRestart &&
         event.note == "deadlock-victim")) {
      deadlock_events.push_back(event.DebugString());
    }
  }
  const std::vector<std::string> expected = {
      "t=52 deadlock job=10 spec=2 others=[10,11,12]",
      "t=52 restart job=10 spec=2 note=deadlock-victim",
      "t=112 deadlock job=23 spec=2 others=[23,24,25]",
      "t=112 restart job=23 spec=2 note=deadlock-victim",
      "t=172 deadlock job=36 spec=2 others=[36,37,38]",
      "t=172 restart job=36 spec=2 note=deadlock-victim",
      "t=232 deadlock job=49 spec=2 others=[49,50,51]",
      "t=232 restart job=49 spec=2 note=deadlock-victim",
      "t=292 deadlock job=62 spec=2 others=[62,63,64]",
      "t=292 restart job=62 spec=2 note=deadlock-victim",
      "t=352 deadlock job=75 spec=2 others=[75,76,77]",
      "t=352 restart job=75 spec=2 note=deadlock-victim",
  };
  EXPECT_EQ(deadlock_events, expected);
  EXPECT_EQ(result.metrics.deadlocks, 6);
  EXPECT_FALSE(result.metrics.halted_on_deadlock);
  EXPECT_EQ(result.metrics.DebugString(set),
            "horizon=400 idle=7 deadlocks=6 max_ceiling=dummy\n"
            "A: released=27 committed=27 missed=0 restarts=0 busy=81 "
            "blocked=18 effective_block=18 (max 3) preempted=0 "
            "blocks[ceil=0 conf=6] max_resp=6\n"
            "B: released=27 committed=27 missed=0 restarts=0 busy=108 "
            "blocked=6 effective_block=0 (max 0) preempted=81 "
            "blocks[ceil=0 conf=6] max_resp=8\n"
            "C: released=20 committed=20 missed=0 restarts=6 busy=150 "
            "blocked=52 effective_block=19 (max 2) preempted=79 "
            "blocks[ceil=0 conf=19] max_resp=20\n"
            "D: released=14 committed=13 missed=0 restarts=0 busy=54 "
            "blocked=70 effective_block=0 (max 0) preempted=84 "
            "blocks[ceil=0 conf=7] max_resp=21");
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlPiTest, ChainedBlockingPossible) {
  // H is blocked by M's lock on y, and (after M completes) by L's lock on
  // x — more than one lower-priority blocker, which PCPs forbid.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 4, .body = {Read(1), Read(0)}},
      {.name = "M", .offset = 2, .body = {Write(1), Compute(3)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(7)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlPi, 30);
  // Count distinct blocking episodes of H.
  int blocks = 0;
  for (const TraceEvent& e : result.trace.events()) {
    if (e.kind == TraceKind::kBlock && e.spec == 0) ++blocks;
  }
  EXPECT_GE(blocks, 2) << FailureContext(set, result);
  EXPECT_TRUE(IsSerializable(result.history));
}

// --- 2PL-HP -------------------------------------------------------------

TEST(TwoPlHpTest, HigherPriorityAbortsHolder) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(2)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, 12);
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.per_spec[0].blocked_ticks, 0);
  EXPECT_EQ(CommitTime(result, 0, 0), 2);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlHpTest, LowerPriorityRequesterWaits) {
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 0, .body = {Write(0), Compute(2)}},
      {.name = "L", .offset = 1, .body = {Read(0)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, 12);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_GT(CommitTime(result, 1, 0), CommitTime(result, 0, 0));
}

TEST(TwoPlHpTest, AbortUndoesInPlaceWrites) {
  // L writes x in place, then is aborted by H, which READS x: H must see
  // the initial value, not L's dirty write.
  TransactionSet set = MakeSet({
      {.name = "H", .offset = 1, .body = {Read(0)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(3)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, 14);
  const CommittedTxn* reader = nullptr;
  for (const auto& txn : result.history.committed()) {
    if (txn.spec == 0) reader = &txn;
  }
  ASSERT_NE(reader, nullptr);
  EXPECT_EQ(reader->ops[0].observed.writer, kInvalidJob)
      << FailureContext(set, result);
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlHpTest, NoDeadlockOnCrossedAccess) {
  TransactionSet set = MakeSet({
      {.name = "TH", .offset = 1, .body = {Read(1), Write(0)}},
      {.name = "TL", .offset = 0, .body = {Read(0), Write(1)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, 14);
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalCommitted(), 2);
  EXPECT_TRUE(IsSerializable(result.history));
}

TEST(TwoPlHpTest, RepeatedRestartsUnderPeriodicPressure) {
  // A periodic high-priority writer keeps aborting the long low-priority
  // transaction — the unbounded-restart weakness the paper cites.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 4, .body = {Write(0)}},
      {.name = "L", .offset = 0, .body = {Write(0), Compute(5)}},
  });
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, 24);
  EXPECT_GE(result.metrics.per_spec[1].restarts, 2)
      << FailureContext(set, result);
}

}  // namespace
}  // namespace pcpda
