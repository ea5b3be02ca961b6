#ifndef PCPDA_PROTOCOLS_PROTOCOL_H_
#define PCPDA_PROTOCOLS_PROTOCOL_H_

#include <span>
#include <utility>
#include <vector>

#include "common/types.h"
#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {

/// A pending lock request.
struct LockRequest {
  const Job* job = nullptr;
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kRead;
};

/// The rule behind a lock decision: which locking condition granted the
/// request, or which one denied or aborted it. Decisions carry the enum;
/// it becomes text only where it is printed (ToString, in trace events
/// and the restart note), so deciding allocates nothing.
enum class DecisionRule : std::uint8_t {
  /// No rule recorded (the baseline protocols' grants and denials).
  kNone,
  /// PCP-DA grants by the locking conditions LC1–LC4.
  kLc1,
  kLc2,
  kLc3,
  kLc4,
  /// PCP-DA denials: LC1 (another job read-locks x), the Table-1
  /// starred condition against a write-lock holder, the "x ∉
  /// WriteSet(T*)" guard of LC3/LC4, and plain ceiling blocking.
  kLc1Denied,
  kWrGuardDenied,
  kTstarGuardDenied,
  kCeilingDenied,
  /// 2PL-HP: the requester outranks every conflicting holder, which are
  /// aborted.
  kHpAbort,
  /// Optimistic protocols: access never blocks.
  kOccGrant,
  /// OCC-DA: the requester would read past its serialization-order
  /// constraint and aborts itself.
  kOccDaConstraint,
};

/// The rule's printed form. The T*-guard and the ceiling denial share
/// "LC-denied", so two rules may print alike: compare rendered text where
/// output depends on it. kNone prints as "".
const char* ToString(DecisionRule rule);

/// A protocol's verdict on a lock request. Decisions are pure — the
/// simulator applies all side effects (lock table updates, aborts,
/// priority inheritance, tracing).
struct LockDecision {
  enum class Kind : std::uint8_t {
    kGrant,
    kBlock,
    /// Abort `victims` (restart them), then grant (2PL-HP).
    kAbortAndGrant,
    /// Abort the REQUESTER itself (optimistic protocols detecting a
    /// serialization-order violation at access time).
    kAbortRequester,
  };

  Kind kind = Kind::kGrant;
  BlockReason reason = BlockReason::kNone;
  DecisionRule rule = DecisionRule::kNone;
  /// kBlock: the jobs blocking the requester (priority-inheritance
  /// targets). kAbortAndGrant: the victims to restart.
  std::vector<JobId> jobs;

  /// Protocol::Decide fills a decision the caller reuses, so `jobs`
  /// keeps its capacity and deciding allocates nothing once warm. clear()
  /// resets it to an empty grant; the setters below pick the verdict and
  /// keep whatever blockers or victims Decide put in `jobs`, except that
  /// Grant and AbortRequester empty it.
  void clear() {
    kind = Kind::kGrant;
    reason = BlockReason::kNone;
    rule = DecisionRule::kNone;
    jobs.clear();
  }
  void Grant(DecisionRule by = DecisionRule::kNone) {
    clear();
    rule = by;
  }
  void Block(BlockReason why, DecisionRule by = DecisionRule::kNone) {
    kind = Kind::kBlock;
    reason = why;
    rule = by;
  }
  void AbortAndGrant(DecisionRule by) {
    kind = Kind::kAbortAndGrant;
    reason = BlockReason::kNone;
    rule = by;
  }
  void AbortRequester(DecisionRule by) {
    clear();
    kind = Kind::kAbortRequester;
    rule = by;
  }
};

/// Which runtime priority-ceiling rule a protocol implements. The
/// invariant auditor uses this to recompute the expected system ceiling
/// from the lock table, independently of the protocol's own accounting.
enum class CeilingRule : std::uint8_t {
  /// No ceilings (2PL-PI, 2PL-HP, OCC-*).
  kNone,
  /// OPCP: Aceil(x) for any held lock on x.
  kAbsolute,
  /// RW-PCP/CCP: Aceil(x) while write-locked, Wceil(x) while read-locked.
  kReadWrite,
  /// PCP-DA: Wceil(x) while read-locked; write locks raise nothing.
  kWriteOnRead,
};

/// When transaction updates reach the database (Section 4 of the paper).
enum class UpdateModel : std::uint8_t {
  /// Writes apply immediately when the write step completes (RW-PCP, CCP,
  /// OPCP, 2PL). Aborts undo through the job's undo log.
  kInPlace,
  /// Writes are buffered in the job's private workspace and apply at
  /// commit (PCP-DA).
  kWorkspace,
};

/// Read-only view of the simulation the protocols decide against.
class SimView {
 public:
  virtual ~SimView() = default;

  virtual const TransactionSet& set() const = 0;
  virtual const StaticCeilings& ceilings() const = 0;
  virtual const LockTable& locks() const = 0;
  /// The committed database state (optimistic protocols validate reads
  /// against it).
  virtual const Database& database() const = 0;
  /// The job with `id`, or nullptr if it no longer exists.
  virtual const Job* job(JobId id) const = 0;
  virtual Tick now() const = 0;
  /// The active jobs in id (= release) order. A view of the simulator's
  /// scan set: valid until the next state change, and it includes the
  /// requester or committing job itself while that job is active.
  virtual std::span<const Job* const> active_jobs() const = 0;
};

/// A concurrency-control protocol. Implementations are stateless with
/// respect to the run: everything they need is derived from the SimView
/// (lock table + static ceilings), which makes decisions trivially
/// re-evaluable every tick.
class Protocol {
 public:
  virtual ~Protocol() = default;

  Protocol(const Protocol&) = delete;
  Protocol& operator=(const Protocol&) = delete;

  virtual const char* name() const = 0;
  virtual UpdateModel update_model() const = 0;
  /// Whether blocked requesters donate their priority to the blockers.
  virtual bool uses_priority_inheritance() const { return true; }
  /// The ceiling rule the protocol follows; kNone for non-ceiling
  /// protocols. Gates the auditor's Theorem 1/2 and Sysceil checks.
  virtual CeilingRule ceiling_rule() const { return CeilingRule::kNone; }
  /// Whether the protocol may release locks before commit (CCP). Such
  /// protocols assume jobs never abort; the fault injector skips abort
  /// faults for them and the auditor waives the strictness check.
  virtual bool releases_early() const { return false; }

  /// Binds the protocol to a run. Must be called before Decide.
  void Attach(const SimView* view);

  /// Decides a lock request into `decision`, which arrives cleared (an
  /// empty grant) and is reused across calls. Pure: must not mutate
  /// protocol state.
  virtual void Decide(const LockRequest& request,
                      LockDecision& decision) const = 0;

  /// Locks (item, mode) the job may release before commit, evaluated after
  /// the job completes a step (CCP's convex early release). Default: none.
  virtual std::vector<std::pair<ItemId, LockMode>> EarlyReleases(
      const Job& job) const;

  /// The highest priority ceiling currently raised by any held lock (the
  /// paper's Max_Sysceil sample); dummy for protocols without ceilings.
  /// Must depend on nothing but the lock table and the static ceilings:
  /// the simulator samples it again only after the lock table changes.
  virtual Priority CurrentCeiling() const { return Priority::Dummy(); }

  // --- Commit-time validation (optimistic protocols) ----------------------

  /// Active jobs the protocol requires aborted for `committing` to commit
  /// (OCC broadcast-commit style forward validation). Applied by the
  /// simulator immediately before the commit. Default: none.
  virtual std::vector<JobId> CommitVictims(const Job& committing) const;

  /// Notification hooks for protocols that keep per-job bookkeeping
  /// (e.g. OCC-DA's serialization-order constraints). Called after the
  /// simulator applies the corresponding transition.
  virtual void OnCommitApplied(const Job& committed) { (void)committed; }
  virtual void OnAbortApplied(const Job& aborted) { (void)aborted; }

 protected:
  Protocol() = default;

  const SimView& view() const;

  /// True when `other` is a different job than `self`.
  static bool IsOther(JobId self, JobId other) { return self != other; }

 private:
  const SimView* view_ = nullptr;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_PROTOCOL_H_
