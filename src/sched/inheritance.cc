#include "sched/inheritance.h"

namespace pcpda {

void ComputeRunningPriorities(JobSlotMap<Priority>& running,
                              const WaitGraph& waits,
                              bool enable_inheritance) {
  if (!enable_inheritance) return;
  // Iterative relaxation; each pass propagates priorities one edge
  // further, so |running| passes suffice (priorities only increase and
  // are bounded by the maximum base priority).
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
