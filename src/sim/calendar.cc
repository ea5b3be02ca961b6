#include "sim/calendar.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {

ArrivalCalendar::ArrivalCalendar(const TransactionSet* set) : set_(set) {
  PCPDA_CHECK(set != nullptr);
}

bool ArrivalCalendar::Cursor::Later::operator()(const Entry& a,
                                                const Entry& b) const {
  // std::push_heap builds a max-heap; invert to keep the earliest
  // (tick, spec) on top.
  if (a.tick != b.tick) return a.tick > b.tick;
  return a.spec > b.spec;
}

ArrivalCalendar::Cursor::Cursor(const TransactionSet* set) : set_(set) {
  PCPDA_CHECK(set != nullptr);
  heap_.reserve(static_cast<std::size_t>(set->size()));
  for (SpecId i = 0; i < set->size(); ++i) {
    heap_.push_back({set->spec(i).offset, i, 0});
  }
  std::make_heap(heap_.begin(), heap_.end(), Later{});
}

Tick ArrivalCalendar::Cursor::NextTick() const {
  return heap_.empty() ? kNoTick : heap_.front().tick;
}

void ArrivalCalendar::Cursor::PopAt(Tick tick, std::vector<Arrival>& due) {
  while (!heap_.empty() && heap_.front().tick == tick) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry entry = heap_.back();
    heap_.pop_back();
    due.push_back({entry.tick, entry.spec, entry.instance});
    const TransactionSpec& spec = set_->spec(entry.spec);
    if (spec.period > 0) {
      heap_.push_back(
          {entry.tick + spec.period, entry.spec, entry.instance + 1});
      std::push_heap(heap_.begin(), heap_.end(), Later{});
    }
  }
  PCPDA_CHECK_MSG(heap_.empty() || heap_.front().tick > tick,
                  "cursor moved past unpopped arrivals");
}

std::vector<Arrival> ArrivalCalendar::Before(Tick horizon) const {
  // Drain a cursor so this enumeration and the simulator's event loop
  // share one arrival semantics by construction. The heap pops already
  // yield (tick, spec) order — no sort needed.
  std::vector<Arrival> arrivals;
  Cursor cursor(set_);
  for (Tick next = cursor.NextTick();
       next != kNoTick && next < horizon; next = cursor.NextTick()) {
    cursor.PopAt(next, arrivals);
  }
  return arrivals;
}

std::vector<Arrival> ArrivalCalendar::At(Tick tick) const {
  std::vector<Arrival> arrivals;
  for (SpecId i = 0; i < set_->size(); ++i) {
    const TransactionSpec& spec = set_->spec(i);
    if (spec.period <= 0) {
      if (spec.offset == tick) arrivals.push_back({tick, i, 0});
      continue;
    }
    if (tick >= spec.offset && (tick - spec.offset) % spec.period == 0) {
      arrivals.push_back(
          {tick, i, static_cast<int>((tick - spec.offset) / spec.period)});
    }
  }
  return arrivals;
}

int ArrivalCalendar::CountBefore(SpecId spec_id, Tick horizon) const {
  PCPDA_CHECK(spec_id >= 0 && spec_id < set_->size());
  const TransactionSpec& spec = set_->spec(spec_id);
  // The [0, horizon) window: a release at exactly `horizon` is out, so a
  // spec whose first release is at or past the horizon never fits.
  if (spec.offset >= horizon) return 0;
  if (spec.period <= 0) return 1;
  return static_cast<int>((horizon - 1 - spec.offset) / spec.period) + 1;
}

}  // namespace pcpda
