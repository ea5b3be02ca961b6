#ifndef PCPDA_SCHED_AUDITOR_H_
#define PCPDA_SCHED_AUDITOR_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "plan/job_arena.h"
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

/// A job blocked at dispatch time and its direct blockers.
struct AuditBlocked {
  JobId job = kInvalidJob;
  const std::vector<JobId>* blockers = nullptr;
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
  /// Jobs blocked at dispatch time, ascending by id.
  const std::vector<AuditBlocked>* blocked = nullptr;
};

/// Invariant auditor: re-derives the protocol guarantees the paper proves
/// (Theorems 1-3) plus the runtime bookkeeping they rest on, independently
/// of the simulator's own data structures, and records every divergence.
/// Checks are gated on protocol traits:
///
///   always            lock holders and wait-for waiters are active jobs;
///                     lock table internally consistent; blocked jobs and
///                     blockers sane
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
///
/// Every tick is audited, but not every tick is re-derived. AuditTick
/// checks one tick from scratch; RepeatLastAudit credits ticks whose
/// inputs the caller knows to be those of the last AuditTick (the
/// simulator uses it on ticks that change no state) and records that
/// audit's violations again, so the report reads as if each of those
/// ticks had been re-derived.
class InvariantAuditor {
 public:
  explicit InvariantAuditor(std::size_t max_violations = 64);

  /// Audits one tick from scratch. Scratch tables persist across calls,
  /// so steady-state audits allocate nothing unless a check fires.
  void AuditTick(const AuditScope& scope);
  /// Audits `ticks` consecutive ticks from `tick` on whose inputs equal
  /// the last AuditTick's: each counts as audited and records every
  /// violation that audit found again at its own tick, through the same
  /// retention cap.
  void RepeatLastAudit(Tick tick, Tick ticks = 1);
  /// True when the last AuditTick (if any) found no violation.
  bool last_audit_clean() const { return last_.empty(); }

  const AuditReport& report() const { return report_; }
  AuditReport TakeReport() { return std::move(report_); }

 private:
  /// One violation of the last AuditTick, kept for RepeatLastAudit.
  struct Finding {
    const char* check;
    std::string detail;
  };

  void Violate(Tick tick, const char* check, std::string detail);
  void Record(Tick tick, const Finding& finding);

  std::size_t max_violations_;
  AuditReport report_;
  std::vector<Finding> last_;
  /// Scratch reused across AuditTick calls: the active jobs' running
  /// priorities (preloaded with base priorities, which also makes it the
  /// active-id set), the wait graph restricted to active jobs, and the
  /// holder and lower-blocker lists built from it.
  JobSlotMap<Priority> running_;
  WaitGraph active_waits_;
  std::vector<JobId> holders_;
  std::vector<JobId> lower_;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_AUDITOR_H_
