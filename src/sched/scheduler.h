#ifndef PCPDA_SCHED_SCHEDULER_H_
#define PCPDA_SCHED_SCHEDULER_H_

#include <vector>

#include "common/types.h"
#include "txn/job.h"

namespace pcpda {

/// Sorts active jobs, in place, into dispatch order: descending running
/// priority, then descending base priority (so a transaction donating its
/// priority is considered before the blocker that inherited it), then
/// FIFO by release time, then job id. The first job in this order that
/// can make progress gets the processor — the paper's priority-driven
/// scheduling. Each job's running priority is read from the job itself
/// (the caller has just written the fixpoint back via
/// Job::set_running_priority). No per-call allocation.
void SortDispatchOrder(std::vector<Job*>& order);

}  // namespace pcpda

#endif  // PCPDA_SCHED_SCHEDULER_H_
