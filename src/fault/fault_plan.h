#ifndef PCPDA_FAULT_FAULT_PLAN_H_
#define PCPDA_FAULT_FAULT_PLAN_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "sim/calendar.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {

/// The kinds of adversity the fault injector can apply. Each targets the
/// cleanup machinery the paper's proofs assume works (lock release,
/// workspace discard, ceiling restoration, inheritance unwinding) rather
/// than the happy path.
enum class FaultKind : std::uint8_t {
  /// Abort (restart) an active job of the target spec.
  kAbort,
  /// Abort an active job of the target spec, but only while it holds at
  /// least one lock — a spurious restart mid-critical-section.
  kRestartInCs,
  /// Extend the target job's current step by `extra` ticks (WCET overrun).
  kOverrun,
  /// Delay a due arrival of the target spec by 1..`extra` ticks (release
  /// jitter).
  kDelayArrival,
  /// Inject `count` extra releases of the target spec (arrival burst).
  kBurstArrival,
};

const char* ToString(FaultKind kind);

/// One fault source. Fires either once at the first eligible tick >= `at`
/// (deterministic) or independently each tick with `probability` (seeded).
/// Exactly one of the two triggers must be set.
struct FaultSpec {
  FaultKind kind = FaultKind::kAbort;
  /// Target spec; kInvalidSpec targets any spec (the lowest-id eligible
  /// job / every due arrival).
  SpecId spec = kInvalidSpec;
  /// One-shot trigger tick; kNoTick when probability-driven.
  Tick at = kNoTick;
  /// Per-tick firing probability; 0 when `at`-driven.
  double probability = 0.0;
  /// kOverrun: extra ticks added to the current step.
  /// kDelayArrival: maximum delay in ticks.
  Tick extra = 1;
  /// kBurstArrival: number of extra releases injected per firing.
  int count = 1;

  std::string DebugString() const;
};

/// A deterministic, seeded plan of faults for one run. Built from
/// SimulatorOptions or a `faults ... end` block in the .scn DSL.
struct FaultConfig {
  std::uint64_t seed = 1;
  std::vector<FaultSpec> faults;

  bool enabled() const { return !faults.empty(); }
};

/// Validates a config against a transaction set: triggers well-formed
/// (exactly one of at/probability), probability in [0, 1], positive
/// extra/count where used, spec ids in range.
Status ValidateFaultConfig(const FaultConfig& config,
                           const TransactionSet& set);

/// A fault to apply to a specific job this tick.
struct JobFault {
  FaultKind kind = FaultKind::kAbort;
  JobId job = kInvalidJob;
  /// kOverrun: ticks to add to the current step.
  Tick extra = 0;
  /// Trace annotation, e.g. "fault:abort".
  std::string note;
};

/// The runtime side of a FaultConfig: owns the seeded RNG and the queue of
/// delayed arrivals, and answers the simulator's two per-tick questions —
/// "what happens to these arrivals?" and "which jobs suffer a fault?".
/// Deterministic: the same config and workload replay identically.
class FaultPlan {
 public:
  /// `set` must outlive the plan. The config must validate.
  FaultPlan(const FaultConfig& config, const TransactionSet* set);

  bool enabled() const { return config_.enabled(); }

  /// Applies arrival faults to the arrivals due at `tick`: delayed
  /// arrivals are withheld and re-emitted at their later tick (original
  /// instance number preserved); burst faults append fresh arrivals whose
  /// instance numbers start at kBurstInstanceBase to stay disjoint from
  /// the calendar's. Rewrites `due` in place; both it and the plan's
  /// scratch buffer keep their capacity across ticks.
  void TransformArrivals(Tick tick, std::vector<Arrival>& due);

  /// The job faults firing at `tick` against `active` (live jobs in id
  /// order). kAbort picks the lowest-id active job of the target spec;
  /// kRestartInCs additionally requires `holds_lock(id)` for that job,
  /// which is asked only while such a fault fires.
  std::vector<JobFault> JobFaultsAt(
      Tick tick, const std::vector<Job*>& active,
      const std::function<bool(JobId)>& holds_lock);

  /// Arrival-fault accounting so far (for metrics).
  Tick delay_ticks() const { return delay_ticks_; }
  std::int64_t delayed_count() const { return delayed_count_; }
  std::int64_t burst_count() const { return burst_count_; }

  /// Instance numbers of burst-injected arrivals start here.
  static constexpr int kBurstInstanceBase = 1 << 20;

 private:
  /// Whether an arrival fault triggers at `tick`: a one-shot (`at` set)
  /// fires once from `at` on and disarms itself; otherwise one
  /// Bernoulli draw.
  bool Fires(FaultSpec& fault, Tick tick);

  FaultConfig config_;
  const TransactionSet* set_;
  Rng rng_;
  /// Delayed arrivals keyed by their new release tick.
  std::map<Tick, std::vector<Arrival>> delayed_;
  /// Per-spec sequence for burst instance numbering.
  std::map<SpecId, int> burst_seq_;
  /// TransformArrivals builds the transformed list here, then swaps it
  /// with the caller's buffer.
  std::vector<Arrival> out_;
  Tick delay_ticks_ = 0;
  std::int64_t delayed_count_ = 0;
  std::int64_t burst_count_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_FAULT_FAULT_PLAN_H_
