#ifndef PCPDA_PROTOCOLS_CCP_H_
#define PCPDA_PROTOCOLS_CCP_H_

#include <utility>
#include <vector>

#include "protocols/rw_pcp.h"

namespace pcpda {

/// The convex ceiling protocol of Nakazato & Lin (the paper's second
/// baseline). DOCUMENTED APPROXIMATION (see DESIGN.md §5): the original
/// publication was unavailable, so CCP is implemented from this paper's
/// description in Sections 2-3 — RW-PCP's locking rule plus early
/// unlocking of items the transaction no longer needs, so the held-ceiling
/// profile is convex (rises, then falls) and high-ceiling items stop
/// blocking others before the transaction ends. Our release condition is
/// slightly stronger than the cited sentence: an item is unlocked only
/// once every remaining step's lock is already held (the transaction is in
/// its shrinking phase). The weaker "no higher ceiling ahead" condition,
/// taken literally, produces non-serializable histories under in-place
/// updates when an equal-ceiling lock is still to come; the shrinking-
/// phase rule keeps the two-phase argument intact while preserving the
/// property the Section-9 comparison needs (shorter worst-case blocking
/// than RW-PCP). CCP assumes transactions never abort; do not combine it
/// with DeadlineMissPolicy::kDrop.
class Ccp : public RwPcp {
 public:
  Ccp() : RwPcp(ProtocolKind::kCcp) {}

  const char* name() const override { return "CCP"; }

  /// Early unlocking after each completed step: once no remaining step
  /// acquires a new lock, release every held item no remaining step uses.
  std::vector<std::pair<ItemId, LockMode>> EarlyReleases(
      const Job& job) const override;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_CCP_H_
