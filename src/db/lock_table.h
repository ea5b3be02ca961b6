#ifndef PCPDA_DB_LOCK_TABLE_H_
#define PCPDA_DB_LOCK_TABLE_H_

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
///
/// Every lock set is a small sorted vector: a handful of holders per item
/// and of items per job, iterated in the same ascending order a std::set
/// gives, with no node allocation per grant or release. Per-item vectors
/// keep their capacity across jobs.
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

  /// Jobs holding a read lock on `item`, ascending by job id.
  const std::vector<JobId>& readers(ItemId item) const;
  /// Jobs holding a write lock on `item`, ascending by job id.
  const std::vector<JobId>& writers(ItemId item) const;

  /// No_Rlock_i(x) of the paper: true when no job other than `job` holds a
  /// read lock on `item`.
  bool NoReaderOtherThan(JobId job, ItemId item) const;
  bool NoWriterOtherThan(JobId job, ItemId item) const;

  /// Items the job holds read locks on, ascending.
  const std::vector<ItemId>& read_items(JobId job) const;
  /// Items the job holds write locks on, ascending.
  const std::vector<ItemId>& write_items(JobId job) const;

  /// All jobs currently holding at least one lock, ascending.
  const std::vector<JobId>& holders() const { return by_job_.ids(); }

  /// Total read + write locks currently held.
  std::size_t lock_count() const { return lock_count_; }
  /// Counts the grants and releases so far: equal versions mean the
  /// same locks are held.
  std::uint64_t version() const { return version_; }

  std::string DebugString() const;

 private:
  struct ItemEntry {
    std::vector<JobId> readers;
    std::vector<JobId> writers;
  };
  struct JobEntry {
    std::vector<ItemId> read_items;
    std::vector<ItemId> write_items;

    bool empty() const { return read_items.empty() && write_items.empty(); }
    /// Lets by_job_ hand a slot to the next job with its capacity kept.
    void clear() {
      read_items.clear();
      write_items.clear();
    }
  };

  const ItemEntry& entry(ItemId item) const;
  ItemEntry& entry(ItemId item);

  std::vector<ItemEntry> entries_;
  /// Per-job held items in a ring-keyed JobId slot map (O(1) lookup,
  /// ascending-id iteration, capacity bounded by the live-id span); an
  /// entry is erased the moment the job's last lock goes away, so its id
  /// list is exactly the holder set.
  JobSlotMap<JobEntry> by_job_;
  std::size_t lock_count_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_DB_LOCK_TABLE_H_
