#ifndef PCPDA_DB_CEILINGS_H_
#define PCPDA_DB_CEILINGS_H_

#include <vector>

#include "common/types.h"
#include "txn/spec.h"

namespace pcpda {

/// The static priority ceilings the protocols consult, computed once from a
/// transaction set (Sections 3 and 5 of the paper):
///
///  * Wceil(x) — write priority ceiling: the priority of the highest
///    priority transaction that may WRITE x. PCP-DA's only ceiling; also
///    HPW(x) in the paper's notation. Dummy if nobody writes x.
///  * Aceil(x) — absolute priority ceiling: the priority of the highest
///    priority transaction that may READ OR WRITE x (RW-PCP/OPCP). Dummy
///    if nobody accesses x.
class StaticCeilings {
 public:
  explicit StaticCeilings(const TransactionSet& set);

  ItemId item_count() const {
    return static_cast<ItemId>(wceil_.size());
  }

  /// Wceil(x) == HPW(x).
  Priority Wceil(ItemId item) const;
  /// Aceil(x).
  Priority Aceil(ItemId item) const;

 private:
  std::vector<Priority> wceil_;
  std::vector<Priority> aceil_;
};

}  // namespace pcpda

#endif  // PCPDA_DB_CEILINGS_H_
