#include "sched/inheritance.h"

namespace pcpda {

std::map<JobId, Priority> ComputeRunningPriorities(
    const std::map<JobId, Priority>& base, const WaitGraph& waits,
    bool enable_inheritance) {
  std::map<JobId, Priority> running = base;
  if (!enable_inheritance) return running;
  // Iterative relaxation; each pass propagates priorities one edge
  // further, so |base| passes suffice (priorities only increase and are
  // bounded by the maximum base priority).
  bool changed = true;
  std::size_t guard = base.size() + 1;
  while (changed && guard-- > 0) {
    changed = false;
    for (JobId waiter : waits.waiters()) {
      auto wit = running.find(waiter);
      if (wit == running.end()) continue;  // waiter no longer live
      for (JobId holder : waits.HoldersBlocking(waiter)) {
        auto hit = running.find(holder);
        if (hit == running.end()) continue;  // holder no longer live
        if (hit->second < wit->second) {
          hit->second = wit->second;
          changed = true;
        }
      }
    }
  }
  return running;
}

void ComputeRunningPrioritiesDense(JobSlotMap<Priority>& running,
                                   const WaitGraph& waits) {
  if (waits.waiter_ids().empty()) return;
  bool changed = true;
  std::size_t guard = running.size() + 1;
  while (changed && guard-- > 0) {
    changed = false;
    for (JobId waiter : waits.waiter_ids()) {
      const Priority* donated = running.find(waiter);
      if (donated == nullptr) continue;  // waiter no longer live
      for (JobId holder : waits.HoldersBlocking(waiter)) {
        Priority* inherited = running.find(holder);
        if (inherited == nullptr) continue;  // holder no longer live
        if (*inherited < *donated) {
          *inherited = *donated;
          changed = true;
        }
      }
    }
  }
}

}  // namespace pcpda
