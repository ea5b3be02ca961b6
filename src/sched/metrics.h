#ifndef PCPDA_SCHED_METRICS_H_
#define PCPDA_SCHED_METRICS_H_

#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "txn/spec.h"

namespace pcpda {

/// Per-spec counters accumulated over one run.
struct SpecMetrics {
  std::int64_t released = 0;
  std::int64_t committed = 0;
  std::int64_t deadline_misses = 0;
  std::int64_t dropped = 0;
  std::int64_t restarts = 0;

  /// CPU ticks executed by instances of the spec.
  Tick busy_ticks = 0;
  /// Ticks an instance spent with a denied lock request.
  Tick blocked_ticks = 0;
  /// The paper's "effective blocking": blocked ticks during which a job of
  /// LOWER base priority occupied the processor.
  Tick effective_blocking_ticks = 0;
  /// Max effective blocking experienced by a single instance.
  Tick max_effective_blocking = 0;
  /// Ticks released-but-not-running because a higher-running-priority job
  /// held the CPU.
  Tick preempted_ticks = 0;

  /// Block events (first tick of each blocking episode) by reason.
  std::int64_t ceiling_blocks = 0;
  std::int64_t conflict_blocks = 0;

  /// Instances still in flight when the horizon ended without a recorded
  /// deadline miss. Their outcome is censored — they never got the chance
  /// to meet or miss their deadline — so MissRatio excludes them from the
  /// denominator.
  std::int64_t pending_at_horizon = 0;

  Tick max_response = 0;
  double total_response = 0.0;
  /// Response-time histogram of the committed instances: (response tick,
  /// number of instances), ascending by response. One entry per distinct
  /// response, so the memory does not grow with the horizon while
  /// percentiles stay exact; a flat vector, so a commit only allocates
  /// when a new distinct response outgrows its capacity.
  std::vector<std::pair<Tick, std::int64_t>> response_counts;

  /// Records one committed instance's response time.
  void AddResponse(Tick response);
  /// Number of recorded response times.
  std::int64_t ResponseCount() const;

  double MeanResponse() const {
    return committed > 0 ? total_response / static_cast<double>(committed)
                         : 0.0;
  }

  /// The p-quantile (p in [0, 1]) of the committed response times using
  /// the nearest-rank method; 0 when nothing committed.
  Tick ResponsePercentile(double p) const;

  /// All requested quantiles. Element i answers ps[i]; values are
  /// identical to calling ResponsePercentile(ps[i]).
  std::vector<Tick> ResponsePercentiles(const std::vector<double>& ps) const;

  friend bool operator==(const SpecMetrics&, const SpecMetrics&) = default;
};

/// Injected-fault accounting for one run. All zero when no fault plan is
/// configured.
struct FaultMetrics {
  /// kAbort faults applied (job aborted and restarted).
  std::int64_t injected_aborts = 0;
  /// kRestartInCs faults applied (spurious restart mid-critical-section).
  std::int64_t injected_restarts = 0;
  /// Abort/restart faults suppressed because the protocol releases locks
  /// early (undo after early release would be unsound).
  std::int64_t skipped_aborts = 0;
  /// kOverrun faults applied, and the total extra ticks they added.
  std::int64_t overruns = 0;
  Tick overrun_ticks = 0;
  /// Arrivals deferred by kDelayArrival faults, and total ticks deferred.
  std::int64_t delayed_arrivals = 0;
  Tick delay_ticks = 0;
  /// Extra arrivals injected by kBurstArrival faults.
  std::int64_t burst_arrivals = 0;

  std::int64_t TotalInjected() const {
    return injected_aborts + injected_restarts + overruns +
           delayed_arrivals + burst_arrivals;
  }

  friend bool operator==(const FaultMetrics&, const FaultMetrics&) = default;
};

/// Whole-run counters plus the per-spec breakdown.
struct RunMetrics {
  std::vector<SpecMetrics> per_spec;
  Tick horizon = 0;
  Tick idle_ticks = 0;
  std::int64_t deadlocks = 0;
  /// The highest ceiling the protocol ever raised (paper's Max_Sysceil).
  Priority max_ceiling;
  bool halted_on_deadlock = false;
  bool halted_on_miss = false;
  /// Lock requests evaluated by the protocol (Protocol::Decide calls),
  /// including re-evaluations during dispatch fixpoint sweeps. Feeds the
  /// ns-per-lock-decision figure in bench_engine_perf; deliberately absent
  /// from DebugString so golden traces are unaffected.
  std::int64_t lock_decisions = 0;
  FaultMetrics faults;

  std::int64_t TotalReleased() const;
  std::int64_t TotalCommitted() const;
  std::int64_t TotalMisses() const;
  std::int64_t TotalRestarts() const;
  std::int64_t TotalPending() const;
  bool AllDeadlinesMet() const { return TotalMisses() == 0; }
  /// Deadline misses over the instances whose outcome is known: released
  /// minus the censored still-pending-at-horizon jobs. Counting censored
  /// jobs as met deadlines would bias the ratio down on short horizons.
  double MissRatio() const;

  std::string DebugString(const TransactionSet& set) const;

  /// Compares every member, lock_decisions included: a superset of what
  /// DebugString renders.
  friend bool operator==(const RunMetrics&, const RunMetrics&) = default;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_METRICS_H_
