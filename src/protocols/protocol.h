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
#include "txn/lock_decision.h"
#include "txn/spec.h"

namespace pcpda {

/// A pending lock request.
struct LockRequest {
  const Job* job = nullptr;
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kRead;
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

/// The protocols this library implements. kPcpDa is the paper's
/// contribution; the rest are baselines (Section 2).
enum class ProtocolKind : std::uint8_t {
  kPcpDa,
  kRwPcp,
  kCcp,
  kOpcp,
  kTwoPlPi,
  kTwoPlHp,
  kOccBc,
  kOccDa,
};

/// What kind of worst-case *effective-blocking* bound the analysis
/// (src/analysis/blocking.cc) can compute for a protocol. Effective
/// blocking is the paper's metric: ticks a job spends with a denied lock
/// request while a lower-base-priority job occupies the CPU.
enum class BlockingBoundKind : std::uint8_t {
  /// Section-9 ceiling analysis: B_i = max over BTS_i (PCP-DA, RW-PCP,
  /// CCP, OPCP).
  kCeiling,
  /// Push-through bound: a requester can wait behind a mixed holder set
  /// that includes lower-priority riders; B_i sums the conflicting
  /// lower-priority execution times (2PL-HP). Restart costs are modeled
  /// separately in the response-time analysis.
  kPushThrough,
  /// The protocol never blocks a request, so B_i = 0; all contention
  /// cost is restart cost (OCC-BC, OCC-DA).
  kNone,
  /// No finite bound exists: transitively chained blocking can stack an
  /// unbounded number of lower-priority critical sections (2PL-PI).
  kUnbounded,
};

/// Static facts about a protocol, available without instantiating it.
/// The one owner of these facts: every Protocol holds its kind's traits,
/// which the simulator and the auditor read, and the static analyzer
/// (src/lint/) gates its rules on TraitsOf.
struct ProtocolTraits {
  UpdateModel update_model = UpdateModel::kInPlace;
  CeilingRule ceiling_rule = CeilingRule::kNone;
  /// Blocked requesters donate their priority to the blockers.
  bool priority_inheritance = false;
  /// Locks may be released before commit (CCP's convex early release).
  bool releases_early = false;
  /// Lock or validation conflicts are resolved by restarting jobs
  /// (2PL-HP victims, OCC validation aborts) rather than by waiting.
  bool resolves_by_restart = false;
  /// Statically immune to deadlock: ceiling protocols by the paper's
  /// Theorem 2; 2PL-HP because a job only ever waits for a higher
  /// priority holder (wait edges cannot cycle); OCC because it never
  /// blocks. Only 2PL-PI can reach a genuine wait-for cycle.
  bool deadlock_free = false;
  /// Which worst-case blocking analysis applies (see BlockingBoundKind).
  /// kUnbounded kinds are excluded from AnalyzableProtocolKinds().
  BlockingBoundKind blocking_bound = BlockingBoundKind::kUnbounded;

  /// True when ComputeBlocking can produce a finite B_i for every spec.
  bool analyzable() const {
    return blocking_bound != BlockingBoundKind::kUnbounded;
  }
};

/// The static trait table for `kind`.
ProtocolTraits TraitsOf(ProtocolKind kind);

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
  /// The static facts of the protocol's kind. The ceiling rule gates the
  /// auditor's Theorem 1/2 and Sysceil checks; an early-release protocol
  /// (CCP) assumes jobs never abort, so the fault injector skips abort
  /// faults for it and the auditor waives the strictness check.
  const ProtocolTraits& traits() const { return traits_; }

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
  explicit Protocol(ProtocolKind kind) : traits_(TraitsOf(kind)) {}

  const SimView& view() const;

 private:
  const ProtocolTraits traits_;
  const SimView* view_ = nullptr;
};

}  // namespace pcpda

#endif  // PCPDA_PROTOCOLS_PROTOCOL_H_
