#include "sched/scheduler.h"

#include <algorithm>

#include "common/check.h"

namespace pcpda {
namespace {

/// The dispatch comparator is a strict total order (job id breaks every
/// tie), so the non-stable std::sort is deterministic.
bool DispatchBefore(const Job* a, const Priority& ra, const Job* b,
                    const Priority& rb) {
  if (ra != rb) return ra > rb;
  if (a->base_priority() != b->base_priority()) {
    return a->base_priority() > b->base_priority();
  }
  if (a->release_time() != b->release_time()) {
    return a->release_time() < b->release_time();
  }
  return a->id() < b->id();
}

}  // namespace

std::vector<Job*> DispatchOrder(
    const std::vector<Job*>& active,
    const std::map<JobId, Priority>& running_priorities) {
  std::vector<Job*> order = active;
  auto running = [&](const Job* job) {
    auto it = running_priorities.find(job->id());
    PCPDA_CHECK_MSG(it != running_priorities.end(),
                    "active job missing a running priority");
    return it->second;
  };
  std::sort(order.begin(), order.end(), [&](const Job* a, const Job* b) {
    return DispatchBefore(a, running(a), b, running(b));
  });
  return order;
}

void SortDispatchOrder(std::vector<Job*>& order) {
  // Insertion sort: the simulator's order is short and kept between
  // calls, so it is sorted or nearly so.
  for (std::size_t i = 1; i < order.size(); ++i) {
    Job* job = order[i];
    std::size_t at = i;
    for (; at > 0 && DispatchBefore(job, job->running_priority(),
                                    order[at - 1],
                                    order[at - 1]->running_priority());
         --at) {
      order[at] = order[at - 1];
    }
    order[at] = job;
  }
}

}  // namespace pcpda
