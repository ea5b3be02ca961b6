#include "db/lock_table.h"

#include "common/check.h"
#include "common/sorted_vector.h"
#include "common/strings.h"

namespace pcpda {

namespace {

const std::vector<ItemId> kNoItems;

}  // namespace

LockTable::LockTable(ItemId item_count) {
  PCPDA_CHECK(item_count >= 0);
  entries_.resize(static_cast<std::size_t>(item_count));
}

const LockTable::ItemEntry& LockTable::entry(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return entries_[static_cast<std::size_t>(item)];
}

LockTable::ItemEntry& LockTable::entry(ItemId item) {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return entries_[static_cast<std::size_t>(item)];
}

void LockTable::AcquireRead(JobId job, ItemId item) {
  if (InsertSorted(entry(item).readers, job)) {
    InsertSorted(by_job_[job].read_items, item);
    ++lock_count_;
    ++version_;
  }
}

void LockTable::AcquireWrite(JobId job, ItemId item) {
  if (InsertSorted(entry(item).writers, job)) {
    InsertSorted(by_job_[job].write_items, item);
    ++lock_count_;
    ++version_;
  }
}

void LockTable::Release(JobId job, ItemId item, LockMode mode) {
  ItemEntry& e = entry(item);
  JobEntry* held = by_job_.find(job);
  PCPDA_CHECK_MSG(held != nullptr, "job holds no locks");
  if (mode == LockMode::kRead) {
    PCPDA_CHECK_MSG(EraseSorted(e.readers, job), "read lock not held");
    EraseSorted(held->read_items, item);
  } else {
    PCPDA_CHECK_MSG(EraseSorted(e.writers, job), "write lock not held");
    EraseSorted(held->write_items, item);
  }
  --lock_count_;
  ++version_;
  if (held->empty()) by_job_.erase(job);
}

void LockTable::ReleaseAll(JobId job) {
  JobEntry* held = by_job_.find(job);
  if (held == nullptr) return;
  for (ItemId item : held->read_items) {
    EraseSorted(entries_[static_cast<std::size_t>(item)].readers, job);
    --lock_count_;
    ++version_;
  }
  for (ItemId item : held->write_items) {
    EraseSorted(entries_[static_cast<std::size_t>(item)].writers, job);
    --lock_count_;
    ++version_;
  }
  by_job_.erase(job);
}

bool LockTable::HoldsRead(JobId job, ItemId item) const {
  return ContainsSorted(entry(item).readers, job);
}

bool LockTable::HoldsWrite(JobId job, ItemId item) const {
  return ContainsSorted(entry(item).writers, job);
}

const std::vector<JobId>& LockTable::readers(ItemId item) const {
  return entry(item).readers;
}

const std::vector<JobId>& LockTable::writers(ItemId item) const {
  return entry(item).writers;
}

bool LockTable::NoReaderOtherThan(JobId job, ItemId item) const {
  const std::vector<JobId>& r = entry(item).readers;
  return r.empty() || (r.size() == 1 && r.front() == job);
}

bool LockTable::NoWriterOtherThan(JobId job, ItemId item) const {
  const std::vector<JobId>& w = entry(item).writers;
  return w.empty() || (w.size() == 1 && w.front() == job);
}

const std::vector<ItemId>& LockTable::read_items(JobId job) const {
  const JobEntry* held = by_job_.find(job);
  return held == nullptr ? kNoItems : held->read_items;
}

const std::vector<ItemId>& LockTable::write_items(JobId job) const {
  const JobEntry* held = by_job_.find(job);
  return held == nullptr ? kNoItems : held->write_items;
}

std::string LockTable::DebugString() const {
  std::vector<std::string> parts;
  for (ItemId i = 0; i < item_count(); ++i) {
    const auto& e = entries_[static_cast<std::size_t>(i)];
    if (e.readers.empty() && e.writers.empty()) continue;
    std::vector<std::string> holders;
    for (JobId j : e.readers) {
      holders.push_back(StrFormat("r:%lld", static_cast<long long>(j)));
    }
    for (JobId j : e.writers) {
      holders.push_back(StrFormat("w:%lld", static_cast<long long>(j)));
    }
    parts.push_back(
        StrFormat("d%d{%s}", i, Join(holders, ",").c_str()));
  }
  return parts.empty() ? "(no locks)" : Join(parts, " ");
}

}  // namespace pcpda
