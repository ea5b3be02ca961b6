#include "supervisor/chaos.h"

#include "common/rng.h"

namespace pcpda {

ChaosSchedule ChaosSchedule::Make(std::uint64_t seed, int kills,
                                  int stops) {
  ChaosSchedule schedule;
  if (kills <= 0 && stops <= 0) return schedule;
  Rng rng(seed);
  // Interleave the two kinds by shuffling the kind sequence, then space
  // the events with uniform progress gaps so injections land mid-shard
  // rather than bunched at startup.
  std::vector<bool> kinds;
  kinds.reserve(static_cast<std::size_t>(kills + stops));
  for (int i = 0; i < kills; ++i) kinds.push_back(true);
  for (int i = 0; i < stops; ++i) kinds.push_back(false);
  rng.Shuffle(kinds);
  std::uint64_t at = 0;
  schedule.events_.reserve(kinds.size());
  for (bool kill : kinds) {
    at += static_cast<std::uint64_t>(rng.UniformInt(2, 8));
    schedule.events_.push_back(ChaosEvent{at, kill});
  }
  return schedule;
}

const ChaosEvent* ChaosSchedule::Due(std::uint64_t progress) {
  if (next_ >= events_.size()) return nullptr;
  if (progress < events_[next_].at_progress) return nullptr;
  return &events_[next_++];
}

}  // namespace pcpda
