#ifndef PCPDA_CORE_LOCK_COMPAT_H_
#define PCPDA_CORE_LOCK_COMPAT_H_

#include <vector>

#include "common/types.h"

namespace pcpda {

/// Table 1 of the paper: lock compatibility between a holder T_L and a
/// requester T_H under the update-in-workspace model.
///
///               | T_H requests read | T_H requests write
///  T_L holds R  |        OK         |       NOT OK
///  T_L holds W  |       OK *        |         OK
///
/// (*) only under DataRead(T_L) ∩ WriteSet(T_H) = ∅, which guarantees T_H
/// is never blocked by T_L and hence commits first, fixing the
/// serialization order T_H -> T_L.
///
/// PCP-DA applies the table in PcpDa::Decide (LC1 and its wr-guard);
/// pcp_da_test checks that the two agree cell by cell.
enum class Table1Compat : std::uint8_t {
  kOk,
  /// Compatible only when the starred condition holds.
  kConditional,
  kNotOk,
};

/// The static entry of Table 1 for (held, requested).
Table1Compat LockCompatibility(LockMode held, LockMode requested);

/// True when the two sorted item sets intersect (the paper's
/// DataRead(T_L) ∩ WriteSet(T_H) ≠ ∅ test).
bool SetsIntersect(const std::vector<ItemId>& a,
                   const std::vector<ItemId>& b);

}  // namespace pcpda

#endif  // PCPDA_CORE_LOCK_COMPAT_H_
