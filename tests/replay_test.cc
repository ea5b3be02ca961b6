#include <gtest/gtest.h>

#include "history/replay_checker.h"
#include "test_util.h"

namespace pcpda {
namespace {

void Read(History& h, JobId job, ItemId item, Tick tick, std::int64_t seq,
          JobId from) {
  h.RecordRead(job, item, tick, seq, Value{from, 0}, false);
}
void Write(History& h, JobId job, ItemId item, Tick tick,
           std::int64_t seq) {
  h.RecordWrite(job, item, tick, seq);
}
void Commit(History& h, JobId job, Tick tick, std::int64_t seq) {
  h.RecordCommit(job, 0, 0, tick, seq);
}

TEST(ReplayCheckerTest, EmptyHistoryOk) {
  History h;
  const auto result = ReplaySerialWitness(h, 4);
  EXPECT_TRUE(result.ok());
}

TEST(ReplayCheckerTest, MatchingReadsPass) {
  History h;
  Write(h, 1, 0, 0, 0);
  Commit(h, 1, 1, 1);
  Read(h, 2, 0, 2, 2, /*from=*/1);
  Commit(h, 2, 3, 3);
  const auto result = ReplaySerialWitness(h, 1);
  EXPECT_TRUE(result.ok()) << result.mismatches.size();
}

TEST(ReplayCheckerTest, WrongObservedValueFlagged) {
  History h;
  Write(h, 1, 0, 0, 0);
  Commit(h, 1, 1, 1);
  // Job 2 reads AFTER job 1's write but claims to have seen the initial
  // value: a capture bug the replay must flag.
  Read(h, 2, 0, 2, 2, /*from=*/kInvalidJob);
  Commit(h, 2, 3, 3);
  const auto result = ReplaySerialWitness(h, 1);
  EXPECT_TRUE(result.serializable);
  ASSERT_EQ(result.mismatches.size(), 1u);
  EXPECT_EQ(result.mismatches[0].job, 2);
  EXPECT_EQ(result.mismatches[0].replayed.writer, 1);
}

TEST(ReplayCheckerTest, ReadFromUncommittedWriterCensoredNotFlagged) {
  // Job 2 observes job 9's write, but job 9 never commits within the
  // history (still in flight at the horizon, legal under early lock
  // release). The committed projection can't validate the read: it must
  // be counted as censored, not reported as a mismatch.
  History h;
  Read(h, 2, 0, 2, 2, /*from=*/9);
  Commit(h, 2, 3, 3);
  const auto result = ReplaySerialWitness(h, 1);
  EXPECT_TRUE(result.ok()) << result.mismatches.size();
  EXPECT_EQ(result.censored_reads, 1);
}

TEST(ReplayCheckerTest, CensoredCountZeroOnFullyCommittedHistory) {
  History h;
  Write(h, 1, 0, 0, 0);
  Commit(h, 1, 1, 1);
  Read(h, 2, 0, 2, 2, /*from=*/1);
  Commit(h, 2, 3, 3);
  const auto result = ReplaySerialWitness(h, 1);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.censored_reads, 0);
}

TEST(ReplayCheckerTest, NonSerializableReported) {
  History h;
  Read(h, 1, 0, 0, 0, kInvalidJob);
  Read(h, 2, 1, 1, 1, kInvalidJob);
  Write(h, 2, 0, 2, 2);
  Write(h, 1, 1, 3, 3);
  Commit(h, 1, 4, 4);
  Commit(h, 2, 5, 5);
  const auto result = ReplaySerialWitness(h, 2);
  EXPECT_FALSE(result.serializable);
  EXPECT_FALSE(result.ok());
}

TEST(ReplayCheckerTest, OwnReadsValidatedAgainstOwnWrites) {
  History h;
  Write(h, 1, 0, 0, 0);
  h.RecordRead(1, 0, 1, 1, Value{1, 0}, /*own_read=*/true);
  Commit(h, 1, 2, 2);
  EXPECT_TRUE(ReplaySerialWitness(h, 1).ok());
}

TEST(ReplayCheckerTest, OwnReadWithWrongWriterFlagged) {
  History h;
  Write(h, 1, 0, 0, 0);
  h.RecordRead(1, 0, 1, 1, Value{99, 0}, /*own_read=*/true);
  Commit(h, 1, 2, 2);
  const auto result = ReplaySerialWitness(h, 1);
  EXPECT_EQ(result.mismatches.size(), 1u);
}

// End-to-end: every protocol's run on every paper example must replay.
TEST(ReplayCheckerTest, AllProtocolsAllExamplesReplay) {
  for (ProtocolKind kind : AllProtocolKinds()) {
    for (const PaperExample& example :
         {Example1(), Example3(), Example4(), Example5()}) {
      SimResult result = [&] {
        auto protocol = MakeProtocol(kind);
        SimulatorOptions options;
        options.horizon = example.horizon;
        options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
        Simulator sim(PlanOf(example.set), protocol.get(), options);
        return sim.Run();
      }();
      const auto replay =
          ReplaySerialWitness(result.history, example.set.item_count());
      EXPECT_TRUE(replay.ok())
          << ToString(kind) << " on " << example.name << ": "
          << (replay.mismatches.empty()
                  ? std::string("not serializable")
                  : replay.mismatches[0].DebugString());
    }
  }
}

}  // namespace
}  // namespace pcpda
