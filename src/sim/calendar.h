#ifndef PCPDA_SIM_CALENDAR_H_
#define PCPDA_SIM_CALENDAR_H_

#include <vector>

#include "common/types.h"
#include "txn/spec.h"

namespace pcpda {

/// A scheduled release of one job.
struct Arrival {
  Tick tick = 0;
  SpecId spec = kInvalidSpec;
  /// 0-based instance index of the spec.
  int instance = 0;

  friend bool operator==(const Arrival&, const Arrival&) = default;
};

/// Generates the release calendar of a transaction set.
///
/// Arrival semantics — the single definition every query below (and the
/// Cursor) is implemented against:
///
///   * A periodic spec (period > 0) releases instance k at tick
///     offset + k * period, for k = 0, 1, 2, ...
///   * A one-shot spec (period == 0) releases exactly one instance,
///     instance 0, at tick `offset`.
///   * "Before H" always means the half-open window [0, H): an arrival at
///     tick H-1 is included, an arrival at exactly H is not. At(t),
///     Before(H) and CountBefore(spec, H) agree on this boundary for
///     periodic and one-shot specs alike.
///   * Simultaneous arrivals are ordered by spec id — the higher-priority
///     spec (smaller id) first.
class ArrivalCalendar {
 public:
  explicit ArrivalCalendar(const TransactionSet* set);

  /// Walks the calendar in (tick, spec) order, yielding each next arrival
  /// in O(log specs) instead of the O(specs) full scan At() performs per
  /// tick. The event-driven simulator core drives job releases and
  /// idle-gap skipping off this.
  class Cursor {
   public:
    explicit Cursor(const TransactionSet* set);

    /// Tick of the earliest arrival not yet popped; kNoTick if exhausted.
    Tick NextTick() const;

    /// Pops the arrivals at exactly `tick` and appends them to `due`
    /// (spec-id order; nothing when `tick` has none). The caller owns the
    /// buffer, so a reused one costs no allocation per release. Requires
    /// every arrival before `tick` to have been popped already — the
    /// cursor only moves forward.
    void PopAt(Tick tick, std::vector<Arrival>& due);

   private:
    /// Min-heap on (tick, spec); periodic specs are re-armed on pop.
    struct Entry {
      Tick tick = 0;
      SpecId spec = kInvalidSpec;
      int instance = 0;
    };
    /// Heap order as a function object, so the heap calls inline it.
    struct Later {
      bool operator()(const Entry& a, const Entry& b) const;
    };

    const TransactionSet* set_;
    std::vector<Entry> heap_;
  };

  Cursor MakeCursor() const { return Cursor(set_); }

  /// All arrivals in [0, horizon), in (tick, spec) order.
  std::vector<Arrival> Before(Tick horizon) const;

  /// Arrivals at exactly `tick` (ordered by spec id).
  std::vector<Arrival> At(Tick tick) const;

  /// Number of instances of `spec` released in [0, horizon).
  int CountBefore(SpecId spec, Tick horizon) const;

 private:
  const TransactionSet* set_;
};

}  // namespace pcpda

#endif  // PCPDA_SIM_CALENDAR_H_
