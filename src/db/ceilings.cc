#include "db/ceilings.h"

#include "common/check.h"

namespace pcpda {

StaticCeilings::StaticCeilings(const TransactionSet& set) {
  const std::size_t n = static_cast<std::size_t>(set.item_count());
  wceil_.assign(n, Priority::Dummy());
  aceil_.assign(n, Priority::Dummy());
  for (SpecId i = 0; i < set.size(); ++i) {
    const Priority p = set.priority(i);
    for (ItemId x : set.spec(i).WriteSet()) {
      auto xi = static_cast<std::size_t>(x);
      wceil_[xi] = Max(wceil_[xi], p);
      aceil_[xi] = Max(aceil_[xi], p);
    }
    for (ItemId x : set.spec(i).ReadSet()) {
      auto xi = static_cast<std::size_t>(x);
      aceil_[xi] = Max(aceil_[xi], p);
    }
  }
}

Priority StaticCeilings::Wceil(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return wceil_[static_cast<std::size_t>(item)];
}

Priority StaticCeilings::Aceil(ItemId item) const {
  PCPDA_CHECK(item >= 0 && item < item_count());
  return aceil_[static_cast<std::size_t>(item)];
}

}  // namespace pcpda
