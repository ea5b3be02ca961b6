#ifndef PCPDA_TRACE_TRACE_H_
#define PCPDA_TRACE_TRACE_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "txn/step.h"

namespace pcpda {

/// Discrete simulator events.
enum class TraceKind : std::uint8_t {
  kArrival,
  kLockGrant,
  /// First tick a job becomes blocked on a request (re-issued denials of
  /// the same request are not re-traced).
  kBlock,
  kEarlyRelease,  // CCP unlocking before commit
  kCommit,
  kRestart,       // 2PL-HP abort / deadlock-resolution victim
  kDeadlineMiss,
  kDeadlock,
  kDrop,          // job dropped by the deadline-miss policy
  kFault,         // injected fault applied (note names the kind)
  kAuditViolation,  // invariant auditor finding (note has the check)
};

const char* ToString(TraceKind kind);

/// One discrete event.
struct TraceEvent {
  Tick tick = 0;
  TraceKind kind = TraceKind::kArrival;
  JobId job = kInvalidJob;
  SpecId spec = kInvalidSpec;
  int instance = 0;
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kRead;
  BlockReason reason = BlockReason::kNone;
  /// Blockers (kBlock), deadlock cycle members (kDeadlock), or victims.
  std::vector<JobId> others;
  /// Free-form annotation, e.g. the locking condition that granted ("LC2").
  std::string note;

  std::string DebugString() const;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// A job observed blocked at some tick.
struct BlockedSample {
  JobId job = kInvalidJob;
  SpecId spec = kInvalidSpec;
  ItemId item = kInvalidItem;
  LockMode mode = LockMode::kRead;
  BlockReason reason = BlockReason::kNone;
  std::vector<JobId> blockers;

  friend bool operator==(const BlockedSample&,
                         const BlockedSample&) = default;
};

/// The processor state during one tick.
struct TickRecord {
  JobId running_job = kInvalidJob;    // kInvalidJob => idle
  SpecId running_spec = kInvalidSpec;
  StepKind running_kind = StepKind::kCompute;
  /// The protocol's current maximum raised ceiling (the paper's
  /// Max_Sysceil dotted line); dummy when nothing is raised.
  Priority ceiling;
  std::vector<BlockedSample> blocked;

  friend bool operator==(const TickRecord&, const TickRecord&) = default;
};

/// A maximal run of ticks [begin, end) that share one TickRecord.
struct TickSpan {
  Tick begin = 0;
  Tick end = 0;
  TickRecord record;

  Tick length() const { return end - begin; }

  friend bool operator==(const TickSpan&, const TickSpan&) = default;
};

/// Full record of one simulation run: the per-tick schedule plus discrete
/// events, with query helpers used by tests and the Gantt renderer.
///
/// The schedule is stored as spans: each maximal run of consecutive ticks
/// with identical records is one TickSpan, and adjacent spans always
/// differ. The encoding is canonical, so two runs with the same per-tick
/// schedule hold equal traces however their ticks were appended.
///
/// By default every event and tick is retained. SetCapacity turns the
/// trace into a bounded ring holding the most recent records, so
/// week-long horizons don't accumulate an unbounded event vector; all
/// query helpers then answer over the retained window only.
class Trace {
 public:
  /// Bounds the retained window to (at least) the most recent `max_events`
  /// discrete events and the same number of ticks; 0 restores the
  /// unbounded default. Appends stay amortized O(1): the events compact
  /// back down to `max_events` once they grow to twice that, and the
  /// schedule does the same counted in ticks, not spans.
  void SetCapacity(std::size_t max_events);

  void AddEvent(TraceEvent event);
  /// Records `record` for the `count` ticks starting at `tick`, which
  /// must be the tick after the last one recorded (any tick when none
  /// is). Extends the last span when its record is equal.
  void AddTicks(Tick tick, Tick count, TickRecord record);
  /// Repeats the last recorded tick's record for `count` more ticks.
  /// Requires a recorded tick.
  void ExtendLastSpan(Tick count);

  const std::vector<TraceEvent>& events() const { return events_; }
  const std::vector<TickSpan>& spans() const { return spans_; }

  /// Retained ticks: [first_tick(), end_tick()), both 0 when none are.
  Tick first_tick() const { return spans_.empty() ? 0 : spans_.front().begin; }
  Tick end_tick() const { return spans_.empty() ? 0 : spans_.back().end; }
  Tick tick_count() const { return end_tick() - first_tick(); }

  /// Records evicted by the capacity bound (0 for unbounded traces);
  /// dropped_ticks() counts ticks.
  std::int64_t dropped_events() const { return dropped_events_; }
  std::int64_t dropped_ticks() const { return dropped_ticks_; }

  std::string DebugString() const;

  /// Retained records, capacity and eviction counters all compared.
  friend bool operator==(const Trace&, const Trace&) = default;

 private:
  /// After `appended` ticks were added, evicts the oldest ticks exactly
  /// as that many one-tick appends would have.
  void CompactTicks(Tick appended);

  std::vector<TraceEvent> events_;
  std::vector<TickSpan> spans_;
  std::size_t capacity_ = 0;
  std::int64_t dropped_events_ = 0;
  std::int64_t dropped_ticks_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_TRACE_TRACE_H_
