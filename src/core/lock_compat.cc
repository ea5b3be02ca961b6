#include "core/lock_compat.h"

namespace pcpda {

Table1Compat LockCompatibility(LockMode held, LockMode requested) {
  if (held == LockMode::kRead) {
    return requested == LockMode::kRead ? Table1Compat::kOk
                                        : Table1Compat::kNotOk;
  }
  // Holder has a write lock. Writes live in the holder's workspace:
  // another write is blind (commit order decides) and a read sees the
  // committed value, admissible under the starred condition.
  return requested == LockMode::kRead ? Table1Compat::kConditional
                                      : Table1Compat::kOk;
}

bool SetsIntersect(const std::vector<ItemId>& a,
                   const std::vector<ItemId>& b) {
  // Linear merge over the sorted sets.
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia < *ib) {
      ++ia;
    } else if (*ib < *ia) {
      ++ib;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace pcpda
