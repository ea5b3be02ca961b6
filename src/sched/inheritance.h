#ifndef PCPDA_SCHED_INHERITANCE_H_
#define PCPDA_SCHED_INHERITANCE_H_

#include <map>

#include "common/types.h"
#include "plan/job_arena.h"
#include "sched/wait_graph.h"

namespace pcpda {

/// Computes running priorities under (transitive) priority inheritance:
///
///   running(j) = max(base(j), max over waiters w blocked on j of
///                              running(w))
///
/// A blocker executes at the highest priority among the transactions it
/// (transitively) blocks, and returns to its base priority when the waits
/// disappear — the paper's inheritance mechanism. With inheritance
/// disabled (2PL-HP) every job runs at its base priority.
///
/// The fixpoint is well defined even on cyclic wait graphs (a deadlock
/// collapses the cycle to its maximum priority); the caller detects and
/// handles deadlocks separately.
std::map<JobId, Priority> ComputeRunningPriorities(
    const std::map<JobId, Priority>& base, const WaitGraph& waits,
    bool enable_inheritance);

/// Dense in-place variant for the simulator's per-sweep fixpoint, with
/// inheritance enabled (the simulator skips the call when it is not):
/// `running` arrives preloaded with the live jobs' base priorities and is
/// relaxed to the same fixpoint as the map overload, with no per-call
/// allocation. Ids absent from `running` are ignored exactly as the map
/// version ignores no-longer-live waiters and holders.
void ComputeRunningPrioritiesDense(JobSlotMap<Priority>& running,
                                   const WaitGraph& waits);

}  // namespace pcpda

#endif  // PCPDA_SCHED_INHERITANCE_H_
