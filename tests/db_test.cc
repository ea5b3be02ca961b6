#include <gtest/gtest.h>

#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "txn/spec.h"
#include "txn/workspace.h"

namespace pcpda {
namespace {

// --- Database ---------------------------------------------------------

TEST(DatabaseTest, InitialState) {
  Database db(3);
  EXPECT_EQ(db.item_count(), 3);
  for (ItemId i = 0; i < 3; ++i) {
    EXPECT_EQ(db.Read(i).writer, kInvalidJob);
    EXPECT_EQ(db.Read(i).version, 0);
  }
  EXPECT_EQ(db.write_count(), 0);
}

TEST(DatabaseTest, WritesStampMonotoneVersions) {
  Database db(2);
  const Value v1 = db.Write(0, 10);
  const Value v2 = db.Write(1, 11);
  const Value v3 = db.Write(0, 12);
  EXPECT_EQ(v1.version, 1);
  EXPECT_EQ(v2.version, 2);
  EXPECT_EQ(v3.version, 3);
  EXPECT_EQ(db.Read(0).writer, 12);
  EXPECT_EQ(db.Read(1).writer, 11);
  EXPECT_EQ(db.write_count(), 3);
}

TEST(DatabaseTest, RestoreReinstatesWithoutVersionBump) {
  Database db(1);
  const Value before = db.Read(0);
  db.Write(0, 5);
  db.Restore(0, before);
  EXPECT_EQ(db.Read(0), before);
  EXPECT_EQ(db.write_count(), 1);  // the write still happened
  const Value next = db.Write(0, 6);
  EXPECT_EQ(next.version, 2);
}

// --- Workspace --------------------------------------------------------

TEST(WorkspaceTest, PutGet) {
  Workspace ws;
  EXPECT_TRUE(ws.empty());
  EXPECT_FALSE(ws.Get(0).has_value());
  ws.Put(0, Value{1, 0});
  ASSERT_TRUE(ws.Get(0).has_value());
  EXPECT_EQ(ws.Get(0)->writer, 1);
  EXPECT_TRUE(ws.Contains(0));
  EXPECT_FALSE(ws.Contains(1));
  EXPECT_EQ(ws.size(), 1u);
}

TEST(WorkspaceTest, OverwriteKeepsLatest) {
  Workspace ws;
  ws.Put(0, Value{1, 0});
  ws.Put(0, Value{2, 0});
  EXPECT_EQ(ws.size(), 1u);
  EXPECT_EQ(ws.Get(0)->writer, 2);
}

TEST(WorkspaceTest, WritesOrderedByItem) {
  Workspace ws;
  ws.Put(5, Value{});
  ws.Put(1, Value{});
  ws.Put(3, Value{});
  EXPECT_EQ(ws.items(), (std::vector<ItemId>{1, 3, 5}));
}

TEST(WorkspaceTest, Clear) {
  Workspace ws;
  ws.Put(0, Value{});
  ws.Clear();
  EXPECT_TRUE(ws.empty());
}

// --- LockTable --------------------------------------------------------

TEST(LockTableTest, AcquireAndQuery) {
  LockTable locks(4);
  locks.AcquireRead(1, 0);
  locks.AcquireWrite(2, 0);
  EXPECT_TRUE(locks.HoldsRead(1, 0));
  EXPECT_FALSE(locks.HoldsWrite(1, 0));
  EXPECT_TRUE(locks.HoldsWrite(2, 0));
  EXPECT_FALSE(locks.HoldsRead(3, 0));
  EXPECT_FALSE(locks.HoldsWrite(3, 0));
  EXPECT_EQ(locks.lock_count(), 2u);
}

TEST(LockTableTest, IdempotentAcquire) {
  LockTable locks(2);
  locks.AcquireRead(1, 0);
  locks.AcquireRead(1, 0);
  locks.AcquireWrite(1, 1);
  locks.AcquireWrite(1, 1);
  EXPECT_EQ(locks.lock_count(), 2u);
  // The repeats add no duplicate entry on either side of the index.
  EXPECT_EQ(locks.readers(0), (std::vector<JobId>{1}));
  EXPECT_EQ(locks.writers(1), (std::vector<JobId>{1}));
  EXPECT_EQ(locks.read_items(1), (std::vector<ItemId>{0}));
  EXPECT_EQ(locks.write_items(1), (std::vector<ItemId>{1}));
}

TEST(LockTableTest, IterationIsAscendingWhateverTheGrantOrder) {
  LockTable locks(6);
  for (JobId job : {9, 3, 7, 1}) locks.AcquireRead(job, 2);
  for (JobId job : {5, 4}) locks.AcquireWrite(job, 2);
  for (ItemId item : {5, 0, 3}) locks.AcquireRead(6, item);
  for (ItemId item : {4, 1}) locks.AcquireWrite(6, item);
  EXPECT_EQ(locks.readers(2), (std::vector<JobId>{1, 3, 7, 9}));
  EXPECT_EQ(locks.writers(2), (std::vector<JobId>{4, 5}));
  EXPECT_EQ(locks.read_items(6), (std::vector<ItemId>{0, 3, 5}));
  EXPECT_EQ(locks.write_items(6), (std::vector<ItemId>{1, 4}));
  EXPECT_EQ(locks.holders(), (std::vector<JobId>{1, 3, 4, 5, 6, 7, 9}));
  EXPECT_EQ(locks.DebugString(),
            "d0{r:6} d1{w:6} d2{r:1,r:3,r:7,r:9,w:4,w:5} d3{r:6} d4{w:6} "
            "d5{r:6}");
}

TEST(LockTableTest, MultipleWritersAllowed) {
  // The table is mechanism only: PCP-DA permits concurrent write locks.
  LockTable locks(1);
  locks.AcquireWrite(1, 0);
  locks.AcquireWrite(2, 0);
  EXPECT_EQ(locks.writers(0), (std::vector<JobId>{1, 2}));
}

TEST(LockTableTest, NoReaderOtherThan) {
  LockTable locks(2);
  EXPECT_TRUE(locks.NoReaderOtherThan(1, 0));
  locks.AcquireRead(1, 0);
  EXPECT_TRUE(locks.NoReaderOtherThan(1, 0));
  locks.AcquireRead(2, 0);
  EXPECT_FALSE(locks.NoReaderOtherThan(1, 0));
  EXPECT_TRUE(locks.NoReaderOtherThan(1, 1));
}

TEST(LockTableTest, NoWriterOtherThan) {
  LockTable locks(1);
  locks.AcquireWrite(7, 0);
  EXPECT_TRUE(locks.NoWriterOtherThan(7, 0));
  EXPECT_FALSE(locks.NoWriterOtherThan(8, 0));
}

TEST(LockTableTest, ReleaseSingle) {
  LockTable locks(2);
  locks.AcquireRead(1, 0);
  locks.AcquireWrite(1, 1);
  locks.Release(1, 0, LockMode::kRead);
  EXPECT_FALSE(locks.HoldsRead(1, 0));
  EXPECT_TRUE(locks.HoldsWrite(1, 1));
  EXPECT_EQ(locks.lock_count(), 1u);
  EXPECT_EQ(locks.holders(), (std::vector<JobId>{1}));
  locks.Release(1, 1, LockMode::kWrite);
  EXPECT_EQ(locks.lock_count(), 0u);
  EXPECT_TRUE(locks.holders().empty());
}

TEST(LockTableTest, ReleaseAll) {
  LockTable locks(3);
  locks.AcquireRead(1, 0);
  locks.AcquireWrite(1, 1);
  locks.AcquireRead(2, 2);
  locks.ReleaseAll(1);
  EXPECT_FALSE(locks.HoldsRead(1, 0));
  EXPECT_FALSE(locks.HoldsWrite(1, 1));
  EXPECT_TRUE(locks.HoldsRead(2, 2));
  EXPECT_EQ(locks.lock_count(), 1u);
  EXPECT_TRUE(locks.readers(0).empty());
  EXPECT_TRUE(locks.writers(1).empty());
  EXPECT_TRUE(locks.read_items(1).empty());
  EXPECT_EQ(locks.holders(), (std::vector<JobId>{2}));
  // Releasing a job with no locks is a no-op.
  locks.ReleaseAll(99);
  EXPECT_EQ(locks.lock_count(), 1u);
  locks.ReleaseAll(2);
  EXPECT_EQ(locks.lock_count(), 0u);
  EXPECT_TRUE(locks.holders().empty());
  EXPECT_EQ(locks.DebugString(), "(no locks)");
}

TEST(LockTableTest, CcpEarlyReleaseKeepsTheRestOrdered) {
  // CCP's shrinking phase hands back single locks before commit, one
  // mode at a time; the job stays a holder until its last lock goes.
  LockTable locks(5);
  locks.AcquireRead(4, 3);
  locks.AcquireRead(4, 0);
  locks.AcquireRead(4, 1);
  locks.AcquireWrite(4, 1);
  locks.AcquireRead(8, 1);
  EXPECT_EQ(locks.lock_count(), 5u);

  locks.Release(4, 1, LockMode::kWrite);  // the read on d1 stays
  EXPECT_TRUE(locks.HoldsRead(4, 1));
  EXPECT_FALSE(locks.HoldsWrite(4, 1));
  EXPECT_TRUE(locks.write_items(4).empty());
  EXPECT_EQ(locks.lock_count(), 4u);

  locks.Release(4, 1, LockMode::kRead);
  EXPECT_EQ(locks.readers(1), (std::vector<JobId>{8}));
  EXPECT_EQ(locks.read_items(4), (std::vector<ItemId>{0, 3}));
  EXPECT_EQ(locks.holders(), (std::vector<JobId>{4, 8}));
  EXPECT_EQ(locks.lock_count(), 3u);

  locks.Release(4, 0, LockMode::kRead);
  locks.Release(4, 3, LockMode::kRead);
  EXPECT_EQ(locks.holders(), (std::vector<JobId>{8}));
  EXPECT_TRUE(locks.read_items(4).empty());
  EXPECT_EQ(locks.lock_count(), 1u);
  // A job that gave everything back early has nothing left to commit.
  locks.ReleaseAll(4);
  EXPECT_EQ(locks.lock_count(), 1u);
}

TEST(LockTableTest, PerJobIndexes) {
  LockTable locks(4);
  locks.AcquireRead(1, 2);
  locks.AcquireRead(1, 0);
  locks.AcquireWrite(1, 3);
  EXPECT_EQ(locks.read_items(1), (std::vector<ItemId>{0, 2}));
  EXPECT_EQ(locks.write_items(1), (std::vector<ItemId>{3}));
  EXPECT_TRUE(locks.read_items(42).empty());
}

TEST(LockTableTest, Holders) {
  LockTable locks(2);
  EXPECT_TRUE(locks.holders().empty());
  locks.AcquireRead(3, 0);
  locks.AcquireWrite(5, 1);
  const auto holders = locks.holders();
  EXPECT_EQ(holders, (std::vector<JobId>{3, 5}));
}

// --- StaticCeilings ----------------------------------------------------

TransactionSet ExampleSet() {
  // T1 reads x; T2 writes y; T3 reads z, writes z; T4 reads y, writes x.
  TransactionSpec t1{.name = "T1", .body = {Read(0)}};
  TransactionSpec t2{.name = "T2", .body = {Write(1)}};
  TransactionSpec t3{.name = "T3", .body = {Read(2), Write(2)}};
  TransactionSpec t4{.name = "T4", .body = {Read(1), Write(0)}};
  auto set = TransactionSet::Create({t1, t2, t3, t4},
                                    PriorityAssignment::kAsListed);
  return std::move(set).value();
}

TEST(CeilingsTest, WceilMatchesExample4) {
  const TransactionSet set = ExampleSet();
  const StaticCeilings ceilings(set);
  // Wceil(x)=P4 (T4 writes x), Wceil(y)=P2, Wceil(z)=P3.
  EXPECT_EQ(ceilings.Wceil(0), set.priority(3));
  EXPECT_EQ(ceilings.Wceil(1), set.priority(1));
  EXPECT_EQ(ceilings.Wceil(2), set.priority(2));
}

TEST(CeilingsTest, AceilIsHighestAccessor) {
  const TransactionSet set = ExampleSet();
  const StaticCeilings ceilings(set);
  // Aceil(x)=P1 (T1 reads x), Aceil(y)=P2, Aceil(z)=P3.
  EXPECT_EQ(ceilings.Aceil(0), set.priority(0));
  EXPECT_EQ(ceilings.Aceil(1), set.priority(1));
  EXPECT_EQ(ceilings.Aceil(2), set.priority(2));
}

TEST(CeilingsTest, UntouchedItemHasDummyCeilings) {
  TransactionSpec t{.name = "T", .body = {Read(3)}};
  auto set = TransactionSet::Create({t});
  ASSERT_TRUE(set.ok());
  const StaticCeilings ceilings(*set);
  EXPECT_TRUE(ceilings.Wceil(0).is_dummy());
  EXPECT_TRUE(ceilings.Aceil(0).is_dummy());
  // Item 3 is read but never written: Wceil dummy, Aceil = P1.
  EXPECT_TRUE(ceilings.Wceil(3).is_dummy());
  EXPECT_EQ(ceilings.Aceil(3), set->priority(0));
}

TEST(CeilingsTest, WceilNeverAboveAceil) {
  const TransactionSet set = ExampleSet();
  const StaticCeilings ceilings(set);
  for (ItemId x = 0; x < ceilings.item_count(); ++x) {
    EXPECT_LE(ceilings.Wceil(x), ceilings.Aceil(x));
  }
}

}  // namespace
}  // namespace pcpda
