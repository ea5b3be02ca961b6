#ifndef PCPDA_SCHED_AUDITOR_H_
#define PCPDA_SCHED_AUDITOR_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "protocols/protocol.h"
#include "sched/wait_graph.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {

/// One invariant violation found by the auditor.
struct AuditViolation {
  Tick tick = 0;
  /// The check that fired, e.g. "sysceil" or "single-blocking".
  std::string check;
  std::string detail;

  std::string DebugString() const;

  friend bool operator==(const AuditViolation&,
                         const AuditViolation&) = default;
};

/// The auditor's verdict over a run: empty means every audited tick upheld
/// every applicable invariant.
struct AuditReport {
  std::vector<AuditViolation> violations;
  /// Violations beyond the retention cap (counted, not stored).
  std::int64_t suppressed = 0;
  Tick ticks_audited = 0;

  bool ok() const { return violations.empty() && suppressed == 0; }
  std::string DebugString() const;

  friend bool operator==(const AuditReport&, const AuditReport&) = default;
};

/// Everything one tick's audit inspects. All pointers are non-owning and
/// must stay valid for the AuditTick call.
struct AuditScope {
  Tick tick = 0;
  const TransactionSet* set = nullptr;
  const StaticCeilings* ceilings = nullptr;
  const Protocol* protocol = nullptr;
  const LockTable* locks = nullptr;
  const Database* database = nullptr;
  const WaitGraph* waits = nullptr;
  /// The jobs the tick's audit scans: every active job, plus the jobs
  /// that retired (committed or dropped) during this tick so their
  /// end-state invariants are still checked at retirement time. Jobs
  /// that retired on an earlier tick are freed; an id naming one (e.g. a
  /// leaked lock) is reported as retired.
  const std::vector<const Job*>* jobs = nullptr;
  /// Jobs blocked at dispatch time -> their direct blockers.
  const std::map<JobId, std::vector<JobId>>* blocked = nullptr;
};

/// Per-tick invariant auditor: re-derives the protocol guarantees the
/// paper proves (Theorems 1-3) plus the runtime bookkeeping they rest on,
/// independently of the simulator's own data structures, and records every
/// divergence. Checks are gated on protocol traits:
///
///   always            lock holders are active jobs; lock table internally
///                     consistent; blocked jobs and blockers sane
///   ceiling_rule()    protocol ceiling == independently recomputed
///                     ceiling; at most one genuine lower-priority blocker
///                     per blocked job (Theorem 1); wait-for graph acyclic
///                     (Theorem 2)
///   inheritance       running priorities == transitive max over waiters
///   kWorkspace model  no active job's uncommitted write visible in the
///                     database; undo logs unused
///   kInPlace model    at most one writer per item, no foreign readers
///                     beside it; undo-logged items still write-locked
///                     (strictness; skipped for early-release protocols)
///
/// The workspace-isolation and strictness checks are what make abort paths
/// auditable: a cleanup that forgets to release a lock, discard a
/// workspace, or undo an in-place write trips them on the very next tick.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(std::size_t max_violations = 64);

  void AuditTick(const AuditScope& scope);

  const AuditReport& report() const { return report_; }
  AuditReport TakeReport() { return std::move(report_); }

 private:
  void Violate(Tick tick, const char* check, std::string detail);

  std::size_t max_violations_;
  AuditReport report_;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_AUDITOR_H_
