#include "sched/metrics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/strings.h"

namespace pcpda {

namespace {

// Nearest-rank: the smallest response r such that at least p*n of the
// samples are <= r, i.e. index ceil(p*n)-1. p=0 is the minimum and p=1
// the maximum, exactly.
std::size_t PercentileRank(double p, std::size_t n) {
  PCPDA_CHECK(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 0;
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(p * static_cast<double>(n))) - 1;
  return std::min(rank, n - 1);
}

}  // namespace

Tick SpecMetrics::ResponsePercentile(double p) const {
  return ResponsePercentiles({p}).front();
}

std::int64_t SpecMetrics::ResponseCount() const {
  std::int64_t n = 0;
  for (const auto& [response, count] : response_counts) n += count;
  return n;
}

std::vector<Tick> SpecMetrics::ResponsePercentiles(
    const std::vector<double>& ps) const {
  std::vector<Tick> out(ps.size(), 0);
  if (response_counts.empty()) return out;
  const std::size_t n = static_cast<std::size_t>(ResponseCount());
  // The sample at sorted index r is the first response whose cumulative
  // count exceeds r.
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const std::size_t rank = PercentileRank(ps[i], n);
    std::size_t through = 0;
    for (const auto& [response, count] : response_counts) {
      through += static_cast<std::size_t>(count);
      if (through > rank) {
        out[i] = response;
        break;
      }
    }
  }
  return out;
}

std::int64_t RunMetrics::TotalReleased() const {
  std::int64_t total = 0;
  for (const SpecMetrics& m : per_spec) total += m.released;
  return total;
}

std::int64_t RunMetrics::TotalCommitted() const {
  std::int64_t total = 0;
  for (const SpecMetrics& m : per_spec) total += m.committed;
  return total;
}

std::int64_t RunMetrics::TotalMisses() const {
  std::int64_t total = 0;
  for (const SpecMetrics& m : per_spec) total += m.deadline_misses;
  return total;
}

std::int64_t RunMetrics::TotalRestarts() const {
  std::int64_t total = 0;
  for (const SpecMetrics& m : per_spec) total += m.restarts;
  return total;
}

std::int64_t RunMetrics::TotalPending() const {
  std::int64_t total = 0;
  for (const SpecMetrics& m : per_spec) total += m.pending_at_horizon;
  return total;
}

double RunMetrics::MissRatio() const {
  // Censoring correction: a job released just before the horizon whose
  // deadline lies beyond it neither met nor missed — dividing by all
  // releases would count it as a met deadline.
  const std::int64_t decided = TotalReleased() - TotalPending();
  if (decided <= 0) return 0.0;
  return static_cast<double>(TotalMisses()) /
         static_cast<double>(decided);
}

std::string RunMetrics::DebugString(const TransactionSet& set) const {
  std::vector<std::string> lines;
  lines.push_back(StrFormat(
      "horizon=%lld idle=%lld deadlocks=%lld max_ceiling=%s",
      static_cast<long long>(horizon), static_cast<long long>(idle_ticks),
      static_cast<long long>(deadlocks),
      max_ceiling.DebugString().c_str()));
  if (faults.TotalInjected() > 0 || faults.skipped_aborts > 0) {
    lines.push_back(StrFormat(
        "faults: aborts=%lld restarts=%lld skipped=%lld overruns=%lld "
        "(+%lld ticks) delayed=%lld (+%lld ticks) bursts=%lld",
        static_cast<long long>(faults.injected_aborts),
        static_cast<long long>(faults.injected_restarts),
        static_cast<long long>(faults.skipped_aborts),
        static_cast<long long>(faults.overruns),
        static_cast<long long>(faults.overrun_ticks),
        static_cast<long long>(faults.delayed_arrivals),
        static_cast<long long>(faults.delay_ticks),
        static_cast<long long>(faults.burst_arrivals)));
  }
  for (SpecId i = 0; i < set.size() &&
                     static_cast<std::size_t>(i) < per_spec.size();
       ++i) {
    const SpecMetrics& m = per_spec[static_cast<std::size_t>(i)];
    lines.push_back(StrFormat(
        "%s: released=%lld committed=%lld missed=%lld restarts=%lld "
        "busy=%lld blocked=%lld effective_block=%lld (max %lld) "
        "preempted=%lld blocks[ceil=%lld conf=%lld] max_resp=%lld",
        set.spec(i).name.c_str(), static_cast<long long>(m.released),
        static_cast<long long>(m.committed),
        static_cast<long long>(m.deadline_misses),
        static_cast<long long>(m.restarts),
        static_cast<long long>(m.busy_ticks),
        static_cast<long long>(m.blocked_ticks),
        static_cast<long long>(m.effective_blocking_ticks),
        static_cast<long long>(m.max_effective_blocking),
        static_cast<long long>(m.preempted_ticks),
        static_cast<long long>(m.ceiling_blocks),
        static_cast<long long>(m.conflict_blocks),
        static_cast<long long>(m.max_response)));
  }
  return Join(lines, "\n");
}

}  // namespace pcpda
