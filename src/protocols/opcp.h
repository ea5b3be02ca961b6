#ifndef PCPDA_PROTOCOLS_OPCP_H_
#define PCPDA_PROTOCOLS_OPCP_H_

#include <vector>

#include "protocols/protocol.h"

namespace pcpda {

/// The original priority ceiling protocol of Sha, Rajkumar & Lehoczky,
/// applied to data items as exclusive resources: every lock is treated as
/// exclusive and every item carries the single ceiling Aceil(x) (the
/// priority of the highest-priority transaction that may access x). T_i
/// may lock x iff P_i exceeds the highest ceiling among items locked by
/// other transactions. Deadlock-free and single-blocking, but ignores
/// read/write semantics entirely — the most conservative baseline.
class Opcp : public Protocol {
 public:
  Opcp() : Protocol(ProtocolKind::kOpcp) {}

  const char* name() const override { return "PCP"; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;
  Priority CurrentCeiling() const override;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_OPCP_H_
