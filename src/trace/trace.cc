#include "trace/trace.h"

#include <cstddef>
#include <utility>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

const char* ToString(TraceKind kind) {
  switch (kind) {
    case TraceKind::kArrival:
      return "arrival";
    case TraceKind::kLockGrant:
      return "lock-grant";
    case TraceKind::kBlock:
      return "block";
    case TraceKind::kEarlyRelease:
      return "early-release";
    case TraceKind::kCommit:
      return "commit";
    case TraceKind::kRestart:
      return "restart";
    case TraceKind::kDeadlineMiss:
      return "deadline-miss";
    case TraceKind::kDeadlock:
      return "deadlock";
    case TraceKind::kDrop:
      return "drop";
    case TraceKind::kFault:
      return "fault";
    case TraceKind::kAuditViolation:
      return "audit-violation";
  }
  return "unknown";
}

std::string TraceEvent::DebugString() const {
  std::string out =
      StrFormat("t=%lld %s job=%lld spec=%d", static_cast<long long>(tick),
                pcpda::ToString(kind), static_cast<long long>(job), spec);
  if (item != kInvalidItem) {
    out += StrFormat(" item=d%d mode=%s", item, pcpda::ToString(mode));
  }
  if (reason != BlockReason::kNone) {
    out += StrFormat(" reason=%s", pcpda::ToString(reason));
  }
  if (!others.empty()) {
    std::vector<std::string> ids;
    ids.reserve(others.size());
    for (JobId j : others) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(j)));
    }
    out += " others=[" + Join(ids, ",") + "]";
  }
  if (!note.empty()) out += " note=" + note;
  return out;
}

namespace {

/// Evicts the oldest events once `events` holds twice the capacity,
/// keeping the newest `capacity`. Amortized O(1) per append.
std::int64_t CompactEvents(std::vector<TraceEvent>& events,
                           std::size_t capacity) {
  if (capacity == 0 || events.size() < 2 * capacity) return 0;
  const std::size_t evict = events.size() - capacity;
  events.erase(events.begin(),
               events.begin() + static_cast<std::ptrdiff_t>(evict));
  return static_cast<std::int64_t>(evict);
}

}  // namespace

void Trace::SetCapacity(std::size_t max_events) {
  capacity_ = max_events;
  dropped_events_ += CompactEvents(events_, capacity_);
  CompactTicks(0);
}

void Trace::AddEvent(TraceEvent event) {
  events_.push_back(std::move(event));
  dropped_events_ += CompactEvents(events_, capacity_);
}

void Trace::AddTicks(Tick tick, Tick count, TickRecord record) {
  PCPDA_CHECK(count > 0);
  PCPDA_CHECK(spans_.empty() || spans_.back().end == tick);
  if (!spans_.empty() && spans_.back().record == record) {
    spans_.back().end += count;
  } else {
    spans_.push_back({tick, tick + count, std::move(record)});
  }
  CompactTicks(count);
}

void Trace::ExtendLastSpan(Tick count) {
  PCPDA_CHECK(!spans_.empty() && count > 0);
  spans_.back().end += count;
  CompactTicks(count);
}

void Trace::CompactTicks(Tick appended) {
  if (capacity_ == 0) return;
  const Tick capacity = static_cast<Tick>(capacity_);
  const Tick retained = tick_count();
  if (retained < 2 * capacity) return;
  // One tick at a time, the window grows to twice the capacity, drops
  // back to the capacity, and refills. A window that was already that
  // full (a new, smaller capacity) drops to the capacity once.
  const Tick keep = retained - appended < 2 * capacity
                        ? capacity + (retained - 2 * capacity) % capacity
                        : capacity;
  const Tick first = end_tick() - keep;
  std::size_t evict = 0;
  while (spans_[evict].end <= first) ++evict;
  spans_.erase(spans_.begin(),
               spans_.begin() + static_cast<std::ptrdiff_t>(evict));
  spans_.front().begin = first;
  dropped_ticks_ += retained - keep;
}

std::string Trace::DebugString() const {
  std::vector<std::string> lines;
  lines.reserve(events_.size());
  for (const TraceEvent& e : events_) lines.push_back(e.DebugString());
  return Join(lines, "\n");
}

}  // namespace pcpda
