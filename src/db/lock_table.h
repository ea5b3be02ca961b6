#ifndef PCPDA_DB_LOCK_TABLE_H_
#define PCPDA_DB_LOCK_TABLE_H_

#include <set>
#include <string>
#include <vector>

#include "common/types.h"
#include "plan/job_arena.h"

namespace pcpda {

/// Lock bookkeeping for the database. The table is pure mechanism: it
/// records who holds which locks and answers queries; whether a lock may be
/// acquired is the protocols' decision. In particular the table permits
/// several concurrent write locks on one item because PCP-DA treats
/// write/write as non-conflicting (each writer updates its own workspace);
/// exclusive-writer protocols simply never grant the second one.
class LockTable {
 public:
  explicit LockTable(ItemId item_count);

  ItemId item_count() const {
    return static_cast<ItemId>(entries_.size());
  }

  // --- Mutation (called by the simulator after a protocol grants) --------

  /// Records a read lock. Idempotent per (job, item).
  void AcquireRead(JobId job, ItemId item);
  /// Records a write lock. Idempotent per (job, item).
  void AcquireWrite(JobId job, ItemId item);
  /// Releases one lock early (used by CCP). Requires the job to hold it.
  void Release(JobId job, ItemId item, LockMode mode);
  /// Releases every lock the job holds (commit or abort).
  void ReleaseAll(JobId job);

  // --- Queries ------------------------------------------------------------

  bool HoldsRead(JobId job, ItemId item) const;
  bool HoldsWrite(JobId job, ItemId item) const;
  /// Holds either mode.
  bool HoldsAny(JobId job, ItemId item) const;

  /// Jobs holding a read lock on `item` (sorted by job id).
  const std::set<JobId>& readers(ItemId item) const;
  /// Jobs holding a write lock on `item` (sorted by job id).
  const std::set<JobId>& writers(ItemId item) const;

  /// No_Rlock_i(x) of the paper: true when no job other than `job` holds a
  /// read lock on `item`.
  bool NoReaderOtherThan(JobId job, ItemId item) const;
  bool NoWriterOtherThan(JobId job, ItemId item) const;

  /// Items the job holds read locks on (sorted).
  const std::set<ItemId>& read_items(JobId job) const;
  /// Items the job holds write locks on (sorted).
  const std::set<ItemId>& write_items(JobId job) const;

  /// All jobs currently holding at least one lock.
  std::vector<JobId> holders() const;

  /// Total read + write locks currently held.
  std::size_t lock_count() const { return lock_count_; }

  std::string DebugString() const;

 private:
  struct ItemEntry {
    std::set<JobId> readers;
    std::set<JobId> writers;
  };
  struct JobEntry {
    std::set<ItemId> read_items;
    std::set<ItemId> write_items;

    bool empty() const { return read_items.empty() && write_items.empty(); }
  };

  const ItemEntry& entry(ItemId item) const;

  std::vector<ItemEntry> entries_;
  /// Per-job held items in a ring-keyed JobId slot map (O(1) lookup,
  /// ascending-id iteration, capacity bounded by the live-id span); an
  /// entry is erased the moment the job's last lock goes away, exactly
  /// like the std::map it replaced.
  JobSlotMap<JobEntry> by_job_;
  std::size_t lock_count_ = 0;

  static const std::set<JobId> kNoJobs;
  static const std::set<ItemId> kNoItems;
};

}  // namespace pcpda

#endif  // PCPDA_DB_LOCK_TABLE_H_
