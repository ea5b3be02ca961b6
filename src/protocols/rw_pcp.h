#ifndef PCPDA_PROTOCOLS_RW_PCP_H_
#define PCPDA_PROTOCOLS_RW_PCP_H_

#include <vector>

#include "protocols/protocol.h"

namespace pcpda {

/// The read/write priority ceiling protocol of Sha, Rajkumar & Lehoczky
/// (the paper's main baseline, Section 2): two-phase locking under the
/// update-in-place model, with a runtime r/w ceiling per item:
///
///   rwceil(x) = Aceil(x) while x is write-locked,
///               Wceil(x) while x is read-locked.
///
/// T_i may lock x (either mode) iff P_i exceeds Sysceil_i, the highest
/// rwceil among items locked by transactions OTHER than T_i; the ceiling
/// comparison subsumes the read/write conflict test. On denial T_i blocks
/// on the holder(s) of the ceiling item(s), which inherit P_i.
///
/// Deadlock-free and single-blocking, but prone to the unnecessary ceiling
/// and conflict blockings PCP-DA removes (Section 3).
class RwPcp : public Protocol {
 public:
  RwPcp() = default;

  const char* name() const override { return "RW-PCP"; }
  UpdateModel update_model() const override { return UpdateModel::kInPlace; }
  CeilingRule ceiling_rule() const override {
    return CeilingRule::kReadWrite;
  }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;

  /// Max rwceil over all currently locked items.
  Priority CurrentCeiling() const override;

 protected:
  /// Sysceil_i with respect to `self`; `holders` (empty on entry) gets
  /// the holders of the ceiling item(s).
  Priority ComputeSysceil(JobId self, std::vector<JobId>& holders) const;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_RW_PCP_H_
