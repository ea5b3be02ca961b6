#ifndef PCPDA_TXN_LOCK_DECISION_H_
#define PCPDA_TXN_LOCK_DECISION_H_

#include <vector>

#include "common/types.h"

namespace pcpda {

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
inline const char* ToString(DecisionRule rule) {
  switch (rule) {
    case DecisionRule::kNone:
      return "";
    case DecisionRule::kLc1:
      return "LC1";
    case DecisionRule::kLc2:
      return "LC2";
    case DecisionRule::kLc3:
      return "LC3";
    case DecisionRule::kLc4:
      return "LC4";
    case DecisionRule::kLc1Denied:
      return "LC1-denied";
    case DecisionRule::kWrGuardDenied:
      return "wr-guard";
    case DecisionRule::kTstarGuardDenied:
    case DecisionRule::kCeilingDenied:
      return "LC-denied";
    case DecisionRule::kHpAbort:
      return "2PL-HP";
    case DecisionRule::kOccGrant:
      return "occ";
    case DecisionRule::kOccDaConstraint:
      return "occ-da-constraint";
  }
  return "unknown";
}

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

}  // namespace pcpda

#endif  // PCPDA_TXN_LOCK_DECISION_H_
