#include "sched/scheduler.h"

namespace pcpda {
namespace {

/// The dispatch comparator is a strict total order (job id breaks every
/// tie), so the sorted order is unique.
bool DispatchBefore(const Job* a, const Job* b) {
  if (a->running_priority() != b->running_priority()) {
    return a->running_priority() > b->running_priority();
  }
  if (a->base_priority() != b->base_priority()) {
    return a->base_priority() > b->base_priority();
  }
  if (a->release_time() != b->release_time()) {
    return a->release_time() < b->release_time();
  }
  return a->id() < b->id();
}

}  // namespace

void SortDispatchOrder(std::vector<Job*>& order) {
  // Insertion sort: the simulator's order is short and kept between
  // calls, so it is sorted or nearly so.
  for (std::size_t i = 1; i < order.size(); ++i) {
    Job* job = order[i];
    std::size_t at = i;
    for (; at > 0 && DispatchBefore(job, order[at - 1]); --at) {
      order[at] = order[at - 1];
    }
    order[at] = job;
  }
}

}  // namespace pcpda
