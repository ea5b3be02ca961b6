#ifndef PCPDA_PLAN_JOB_ARENA_H_
#define PCPDA_PLAN_JOB_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/types.h"

namespace pcpda {

/// JobId-keyed slot map: the struct-of-arrays arena primitive behind the
/// simulator's per-job hot state. Slots form a direct-mapped ring of
/// power-of-two capacity keyed by `id & mask`, with an owner-id array
/// recording which id each slot currently holds. Job ids are issued
/// densely and in release order, and only jobs in flight are live, so the
/// live ids occupy a sliding window: a slot is reused by the id one
/// capacity further on once its previous owner is erased. The ring only
/// grows (doubling, rehashing the live entries) when a new id collides
/// with a live one, so capacity is bounded by the span of live ids, not
/// by the number of ids ever inserted. A separately maintained ascending
/// id list reproduces the iteration order of the std::map<JobId, T> this
/// replaced — the goldens in tests/determinism_test.cc depend on that
/// order.
///
/// Erase clears the slot's owner and leaves the payload in place; the
/// payload is only emptied when the slot is reused, so a payload owning a
/// resource must be released before the erase. A payload with a clear()
/// (strings, vectors, structs of them) is emptied in place and keeps its
/// capacity for the next id mapped there, so steady-state ticks allocate
/// nothing. clear() is O(live entries), not O(capacity).
template <typename T>
class JobSlotMap {
 public:
  bool empty() const { return ids_.empty(); }
  std::size_t size() const { return ids_.size(); }
  /// Ring slots allocated; a power of two, or 0 before the first insert.
  std::size_t capacity() const { return slots_.size(); }

  /// Live ids in ascending order — the std::map iteration order.
  const std::vector<JobId>& ids() const { return ids_; }

  bool contains(JobId id) const {
    return id >= 0 && !owner_.empty() && owner_[SlotOf(id)] == id;
  }

  const T* find(JobId id) const {
    return contains(id) ? &slots_[SlotOf(id)] : nullptr;
  }
  T* find(JobId id) {
    return contains(id) ? &slots_[SlotOf(id)] : nullptr;
  }

  /// The live entry for `id`; the id must be present.
  const T& at(JobId id) const {
    const T* entry = find(id);
    PCPDA_CHECK_MSG(entry != nullptr, "JobSlotMap::at on an absent id");
    return *entry;
  }
  T& at(JobId id) {
    T* entry = find(id);
    PCPDA_CHECK_MSG(entry != nullptr, "JobSlotMap::at on an absent id");
    return *entry;
  }

  /// Inserts an empty entry when absent, so stale payload never leaks
  /// into a new job: a payload with a clear() (strings, vectors, structs
  /// of them) is emptied in place and keeps its capacity; any other is
  /// reset to T{}.
  T& operator[](JobId id) {
    PCPDA_CHECK(id >= 0);
    if (contains(id)) return slots_[SlotOf(id)];
    if (owner_.empty()) Rehash(kMinCapacity);
    while (owner_[SlotOf(id)] != kInvalidJob) Rehash(2 * slots_.size());
    const std::size_t slot = SlotOf(id);
    owner_[slot] = id;
    if constexpr (requires(T& payload) { payload.clear(); }) {
      slots_[slot].clear();
    } else {
      slots_[slot] = T{};
    }
    ids_.insert(std::upper_bound(ids_.begin(), ids_.end(), id), id);
    return slots_[slot];
  }

  void erase(JobId id) {
    if (!contains(id)) return;
    owner_[SlotOf(id)] = kInvalidJob;
    ids_.erase(std::lower_bound(ids_.begin(), ids_.end(), id));
  }

  void clear() {
    for (JobId id : ids_) owner_[SlotOf(id)] = kInvalidJob;
    ids_.clear();
  }

  void swap(JobSlotMap& other) {
    slots_.swap(other.slots_);
    owner_.swap(other.owner_);
    ids_.swap(other.ids_);
  }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  std::size_t SlotOf(JobId id) const {
    return static_cast<std::size_t>(id) & (slots_.size() - 1);
  }

  /// Moves every live entry into a fresh ring of `capacity` slots. Live
  /// ids that did not collide modulo the old capacity cannot collide
  /// modulo a larger power of two, so the rehash itself never collides.
  void Rehash(std::size_t capacity) {
    std::vector<T> slots(capacity);
    std::vector<JobId> owner(capacity, kInvalidJob);
    const std::size_t mask = capacity - 1;
    for (JobId id : ids_) {
      const std::size_t to = static_cast<std::size_t>(id) & mask;
      slots[to] = std::move(slots_[SlotOf(id)]);
      owner[to] = id;
    }
    slots_.swap(slots);
    owner_.swap(owner);
  }

  std::vector<T> slots_;
  std::vector<JobId> owner_;
  std::vector<JobId> ids_;
};

}  // namespace pcpda

#endif  // PCPDA_PLAN_JOB_ARENA_H_
