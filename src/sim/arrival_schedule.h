#ifndef PCPDA_SIM_ARRIVAL_SCHEDULE_H_
#define PCPDA_SIM_ARRIVAL_SCHEDULE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "sim/calendar.h"
#include "txn/spec.h"

namespace pcpda {

/// An explicit release schedule, overriding the strictly periodic calendar
/// the paper assumes. Lets the simulator run the arrival models of the
/// soft real-time database literature (release jitter, sporadic minimum
/// inter-arrival, Poisson aperiodic load) and replay recorded traces.
///
/// Arrivals are sorted by (tick, spec) and instance-numbered per spec in
/// release order.
class ArrivalSchedule {
 public:
  /// The paper's model: releases at offset, offset+period, ... — identical
  /// to what the simulator does without a schedule.
  static ArrivalSchedule Periodic(const TransactionSet& set, Tick horizon);

  /// Sporadic releases: each spec's inter-arrival time is drawn uniformly
  /// from [period, period * (1 + max_jitter)] — the period becomes a
  /// MINIMUM inter-arrival time. One-shot specs release once at their
  /// offset. Requires max_jitter >= 0.
  static ArrivalSchedule Sporadic(const TransactionSet& set, Tick horizon,
                                  double max_jitter, Rng& rng);

  /// Poisson (memoryless) releases: each spec's inter-arrival time is
  /// exponential with mean period / load, so load = 1 reproduces the
  /// periodic spec's average rate and load > 1 overdrives it. Inter-
  /// arrivals are at least 1 tick. Requires load > 0.
  static ArrivalSchedule Poisson(const TransactionSet& set, Tick horizon,
                                 double load, Rng& rng);

  /// An explicit trace. Validates: ticks non-negative and sorted, spec
  /// ids in range, per-spec instances consecutive from 0.
  static StatusOr<ArrivalSchedule> FromArrivals(
      const TransactionSet& set, std::vector<Arrival> arrivals);

  const std::vector<Arrival>& arrivals() const { return arrivals_; }

  /// Arrivals at exactly `tick`.
  std::vector<Arrival> At(Tick tick) const;

 private:
  explicit ArrivalSchedule(std::vector<Arrival> arrivals);

  /// Sorts and assigns per-spec instance numbers.
  static ArrivalSchedule Finalize(std::vector<Arrival> arrivals);

  std::vector<Arrival> arrivals_;
};

}  // namespace pcpda

#endif  // PCPDA_SIM_ARRIVAL_SCHEDULE_H_
