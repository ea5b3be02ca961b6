#ifndef PCPDA_PROTOCOLS_TWO_PL_PI_H_
#define PCPDA_PROTOCOLS_TWO_PL_PI_H_

#include "protocols/protocol.h"

namespace pcpda {

/// Two-phase locking with the basic priority inheritance protocol (Sha et
/// al.'s PIP, Section 1 of the paper): plain shared/exclusive locks, the
/// blocker inherits the waiter's priority. Bounds neither chained blocking
/// nor deadlock — the paper's motivation for ceiling protocols. The
/// simulator's wait-for-graph detector catches the deadlocks this protocol
/// can produce.
class TwoPlPi : public Protocol {
 public:
  TwoPlPi() : Protocol(ProtocolKind::kTwoPlPi) {}

  const char* name() const override { return "2PL-PI"; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_TWO_PL_PI_H_
