#ifndef PCPDA_PROTOCOLS_TWO_PL_HP_H_
#define PCPDA_PROTOCOLS_TWO_PL_HP_H_

#include "protocols/protocol.h"

namespace pcpda {

/// Two-phase locking with the High Priority conflict resolution of Abbott
/// & Garcia-Molina (the abortion strategy the paper's Section 2 contrasts
/// with, refs [18,19,21]): on a conflict, if the requester's priority
/// exceeds every conflicting holder's, the holders are aborted and
/// restarted; otherwise the requester waits. Deadlock-free (the wait-for
/// graph only points towards higher priorities) but pays abort/re-execute
/// overhead, and the number of restarts a low-priority transaction suffers
/// is unbounded — which is why its schedulability analysis is problematic.
class TwoPlHp : public Protocol {
 public:
  TwoPlHp() : Protocol(ProtocolKind::kTwoPlHp) {}

  const char* name() const override { return "2PL-HP"; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_TWO_PL_HP_H_
