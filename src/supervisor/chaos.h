#ifndef PCPDA_SUPERVISOR_CHAOS_H_
#define PCPDA_SUPERVISOR_CHAOS_H_

#include <cstdint>
#include <vector>

namespace pcpda {

/// One scheduled fault injection against a live worker process.
struct ChaosEvent {
  /// Fires when the supervisor's progress clock — checkpoint records
  /// written plus workers spawned, across all shards — reaches this
  /// value. Progress is the only clock the schedule uses, so the
  /// injection points track real campaign progress instead of wall time
  /// and a chaos run on a loaded machine injects at the same *logical*
  /// points as on an idle one.
  std::uint64_t at_progress = 0;
  /// SIGKILL when true (instant death, progress since the last record is
  /// lost, the shard resumes); SIGSTOP when false (the worker freezes,
  /// the stall detector must notice and escalate SIGTERM→SIGKILL).
  bool kill = true;
};

/// The chaos self-test's seeded injection schedule: `kills` SIGKILL and
/// `stops` SIGSTOP events, interleaved deterministically from `seed`
/// with uniform progress gaps in [2, 8]. The acceptance bar for any
/// schedule is that the merged BENCH_campaign.json stays byte-identical
/// to an undisturbed run — chaos may cost retries, never results.
class ChaosSchedule {
 public:
  ChaosSchedule() = default;
  static ChaosSchedule Make(std::uint64_t seed, int kills, int stops);

  bool active() const { return next_ < events_.size(); }
  /// The event due at progress clock `progress`, or nullptr. Advances
  /// past the event it returns.
  const ChaosEvent* Due(std::uint64_t progress);

  const std::vector<ChaosEvent>& events() const { return events_; }

 private:
  std::vector<ChaosEvent> events_;
  std::size_t next_ = 0;
};

}  // namespace pcpda

#endif  // PCPDA_SUPERVISOR_CHAOS_H_
