#ifndef PCPDA_PROTOCOLS_OCC_H_
#define PCPDA_PROTOCOLS_OCC_H_

#include <cstdint>
#include <map>

#include "protocols/protocol.h"

namespace pcpda {

/// Optimistic concurrency control with broadcast commit (OCC-BC), the
/// classic forward-validation scheme the paper's Section 2 groups with the
/// abortion-strategy protocols [18,19,21]: transactions run without
/// blocking (all data access granted immediately; updates deferred to a
/// private workspace) and a committing transaction aborts every active
/// transaction that has read an item it is about to overwrite. No
/// blocking, no deadlock — but lower-priority (and even higher-priority)
/// transactions pay unbounded restart overhead, which is exactly why the
/// paper's schedulability analysis prefers blocking-based ceilings.
class OccBc : public Protocol {
 public:
  OccBc() = default;

  const char* name() const override { return "OCC-BC"; }
  UpdateModel update_model() const override {
    return UpdateModel::kWorkspace;
  }
  bool uses_priority_inheritance() const override { return false; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;
  std::vector<JobId> CommitVictims(const Job& committing) const override;
};

/// OCC with dynamic adjustment of serialization order (OCC-DA), after Lin
/// & Son [11,20] — the direct ancestor of this paper's idea: instead of
/// aborting every reader it overwrites, a committing transaction T_c can
/// record the constraint "reader serializes BEFORE T_c" and let it run.
/// This implementation tolerates READ-ONLY readers (their serialization
/// slot is the snapshot version recorded with the constraint; reads past
/// that snapshot self-abort at access time), which is provably
/// conflict-serializable without full timestamp-interval machinery;
/// writing readers restart as under broadcast commit, because their
/// outgoing write edges can contradict the constraint transitively.
/// Same non-blocking execution as OCC-BC with strictly fewer restarts.
class OccDa : public OccBc {
 public:
  OccDa() = default;

  const char* name() const override { return "OCC-DA"; }

  void Decide(const LockRequest& request,
              LockDecision& decision) const override;
  std::vector<JobId> CommitVictims(const Job& committing) const override;
  void OnCommitApplied(const Job& committed) override;
  void OnAbortApplied(const Job& aborted) override;

 private:
  /// snapshot_[j] = newest database version j may still observe: set when
  /// j is first constrained to serialize before a committing transaction,
  /// tightened by later ones. Decisions stay deterministic functions of
  /// (view, this state).
  std::map<JobId, std::int64_t> snapshot_;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_OCC_H_
