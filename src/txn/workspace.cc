#include "txn/workspace.h"

#include <algorithm>

namespace pcpda {

void Workspace::Put(ItemId item, Value value) {
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  const auto at = static_cast<std::size_t>(it - items_.begin());
  if (it != items_.end() && *it == item) {
    values_[at] = value;
    return;
  }
  items_.insert(it, item);
  values_.insert(values_.begin() + static_cast<std::ptrdiff_t>(at), value);
}

std::size_t Workspace::Find(ItemId item) const {
  const auto it = std::lower_bound(items_.begin(), items_.end(), item);
  return it != items_.end() && *it == item
             ? static_cast<std::size_t>(it - items_.begin())
             : items_.size();
}

std::optional<Value> Workspace::Get(ItemId item) const {
  const std::size_t at = Find(item);
  if (at == items_.size()) return std::nullopt;
  return values_[at];
}

bool Workspace::Contains(ItemId item) const {
  return Find(item) != items_.size();
}

void Workspace::Clear() {
  items_.clear();
  values_.clear();
}

}  // namespace pcpda
