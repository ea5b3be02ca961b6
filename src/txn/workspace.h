#ifndef PCPDA_TXN_WORKSPACE_H_
#define PCPDA_TXN_WORKSPACE_H_

#include <optional>
#include <vector>

#include "common/types.h"
#include "db/value.h"

namespace pcpda {

/// A transaction's private workspace (the update-in-workspace model of
/// Section 4 of the paper). Writes are buffered here during execution and
/// reach the database only at commit; the owning transaction's own reads
/// see the workspace first.
///
/// Flat storage: the written items as a sorted vector with their values
/// in a parallel vector. A transaction writes a handful of items, and
/// Clear keeps both capacities, so a job re-initialised from the
/// simulator's pool buffers its writes without allocating.
class Workspace {
 public:
  /// Buffers a write of `value` to `item`, replacing any earlier buffered
  /// write of the same item.
  void Put(ItemId item, Value value);

  /// The buffered value for `item`, if the transaction has written it.
  std::optional<Value> Get(ItemId item) const;

  bool Contains(ItemId item) const;
  bool empty() const { return items_.empty(); }
  std::size_t size() const { return items_.size(); }

  /// The written items in ascending order (deterministic commit
  /// application).
  const std::vector<ItemId>& items() const { return items_; }

  void Clear();

 private:
  /// Position of `item` in items_, or size() when absent.
  std::size_t Find(ItemId item) const;

  std::vector<ItemId> items_;
  /// values_[i] is the buffered value of items_[i].
  std::vector<Value> values_;
};

}  // namespace pcpda

#endif  // PCPDA_TXN_WORKSPACE_H_
