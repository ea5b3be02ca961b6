#ifndef PCPDA_CORE_PCP_DA_H_
#define PCPDA_CORE_PCP_DA_H_

#include <vector>

#include "protocols/protocol.h"

namespace pcpda {

/// Options for PcpDa, mainly for the ablation benches.
struct PcpDaOptions {
  /// The "x ∉ WriteSet(T*)" guard of LC3/LC4. Disabling it yields the
  /// naive "condition (2)" protocol of the paper's Example 5, which can
  /// deadlock; keep it on for the real protocol.
  bool enable_tstar_guard = true;
  /// The Table-1 starred condition (DataRead(T_L) ∩ WriteSet(T_H) = ∅)
  /// checked against current write-lock holders before a read is granted.
  /// Required for serializability (Lemma 9); disabling is for ablation
  /// only.
  bool enable_wr_guard = true;
};

/// PCP-DA — the paper's contribution (Section 5): a priority ceiling
/// protocol with dynamic adjustment of serialization order.
///
/// Transactions defer updates to a private workspace (update-in-workspace
/// model), which makes write operations preemptable: write locks raise no
/// ceiling and write/write conflicts vanish. Each data item carries a
/// single static write priority ceiling Wceil(x) (= HPW(x)), effective
/// only while the item is read-locked. A request by T_i is granted when
/// one of the locking conditions holds:
///
///   LC1  Wlock_i(x) and no other transaction read-locks x.
///   LC2  Rlock_i(x) and P_i > Sysceil_i (the highest Wceil among items
///        read-locked by others).
///   LC3  Rlock_i(x) and P_i > HPW(x) and x ∉ WriteSet(T*).
///   LC4  Rlock_i(x) and P_i = HPW(x) and no other transaction read-locks
///        x and x ∉ WriteSet(T*).
///
/// where T* holds the read-locked item whose Wceil equals Sysceil_i.
/// Reads of items write-locked by others additionally pass Table 1's
/// starred condition. Priority inheritance applies on blocking.
///
/// Properties (proved in the paper, verified by this repo's tests):
/// single blocking, deadlock freedom, serializability, and no restarts.
class PcpDa : public Protocol {
 public:
  explicit PcpDa(PcpDaOptions options = {});

  const char* name() const override { return "PCP-DA"; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;

  /// Max Wceil over all currently read-locked items (write locks raise
  /// nothing).
  Priority CurrentCeiling() const override;

  const PcpDaOptions& options() const { return options_; }

 private:
  /// Sysceil_i with respect to `self`: the highest Wceil over items
  /// read-locked by transactions other than `self`; dummy when there are
  /// none.
  Priority Sysceil(JobId self) const;

  /// Appends T* to `tstar`: the transactions other than `self`, ascending,
  /// that read-lock an item whose Wceil equals `sysceil`.
  void CollectTstar(JobId self, Priority sysceil,
                    std::vector<JobId>& tstar) const;

  PcpDaOptions options_;
};

}  // namespace pcpda

#endif  // PCPDA_CORE_PCP_DA_H_
