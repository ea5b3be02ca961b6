#include "sim/arrival_schedule.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

ArrivalSchedule::ArrivalSchedule(std::vector<Arrival> arrivals)
    : arrivals_(std::move(arrivals)) {}

ArrivalSchedule ArrivalSchedule::Finalize(std::vector<Arrival> arrivals) {
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& a, const Arrival& b) {
                     if (a.tick != b.tick) return a.tick < b.tick;
                     return a.spec < b.spec;
                   });
  std::map<SpecId, int> next_instance;
  for (Arrival& arrival : arrivals) {
    arrival.instance = next_instance[arrival.spec]++;
  }
  return ArrivalSchedule(std::move(arrivals));
}

ArrivalSchedule ArrivalSchedule::Periodic(const TransactionSet& set,
                                          Tick horizon) {
  return Finalize(ArrivalCalendar(&set).Before(horizon));
}

ArrivalSchedule ArrivalSchedule::Sporadic(const TransactionSet& set,
                                          Tick horizon, double max_jitter,
                                          Rng& rng) {
  PCPDA_CHECK(max_jitter >= 0.0);
  std::vector<Arrival> arrivals;
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    if (spec.period <= 0) {
      if (spec.offset < horizon) arrivals.push_back({spec.offset, i, 0});
      continue;
    }
    const Tick max_gap = static_cast<Tick>(std::llround(
        static_cast<double>(spec.period) * (1.0 + max_jitter)));
    Tick t = spec.offset;
    while (t < horizon) {
      arrivals.push_back({t, i, 0});
      t += rng.UniformInt(spec.period, std::max(spec.period, max_gap));
    }
  }
  return Finalize(std::move(arrivals));
}

ArrivalSchedule ArrivalSchedule::Poisson(const TransactionSet& set,
                                         Tick horizon, double load,
                                         Rng& rng) {
  PCPDA_CHECK(load > 0.0);
  std::vector<Arrival> arrivals;
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    if (spec.period <= 0) {
      if (spec.offset < horizon) arrivals.push_back({spec.offset, i, 0});
      continue;
    }
    const double mean = static_cast<double>(spec.period) / load;
    Tick t = spec.offset;
    while (t < horizon) {
      arrivals.push_back({t, i, 0});
      // Exponential inter-arrival, at least one tick. 1 - U avoids log(0).
      const double u = 1.0 - rng.UniformDouble();
      const Tick gap = std::max<Tick>(
          1, static_cast<Tick>(std::llround(-mean * std::log(u))));
      t += gap;
    }
  }
  return Finalize(std::move(arrivals));
}

StatusOr<ArrivalSchedule> ArrivalSchedule::FromArrivals(
    const TransactionSet& set, std::vector<Arrival> arrivals) {
  Tick previous = 0;
  for (const Arrival& arrival : arrivals) {
    if (arrival.tick < 0) {
      return Status::InvalidArgument("arrival before time 0");
    }
    if (arrival.tick < previous) {
      return Status::InvalidArgument("arrivals not sorted by tick");
    }
    previous = arrival.tick;
    if (arrival.spec < 0 || arrival.spec >= set.size()) {
      return Status::InvalidArgument(
          StrFormat("arrival for unknown spec %d", arrival.spec));
    }
  }
  return Finalize(std::move(arrivals));
}

std::vector<Arrival> ArrivalSchedule::At(Tick tick) const {
  std::vector<Arrival> out;
  // Binary search for the first arrival at `tick`.
  auto it = std::lower_bound(
      arrivals_.begin(), arrivals_.end(), tick,
      [](const Arrival& a, Tick t) { return a.tick < t; });
  for (; it != arrivals_.end() && it->tick == tick; ++it) {
    out.push_back(*it);
  }
  return out;
}

}  // namespace pcpda
