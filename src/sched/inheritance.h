#ifndef PCPDA_SCHED_INHERITANCE_H_
#define PCPDA_SCHED_INHERITANCE_H_

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
/// `running` arrives holding the live jobs' base priorities and is
/// relaxed in place; waiters and holders absent from it (no longer live)
/// are ignored. The fixpoint is well defined even on cyclic wait graphs
/// (a deadlock collapses the cycle to its maximum priority); the caller
/// detects and handles deadlocks separately. This is the invariant
/// auditor's reference fixpoint, kept apart from the simulator's own.
void ComputeRunningPriorities(JobSlotMap<Priority>& running,
                              const WaitGraph& waits,
                              bool enable_inheritance);

/// The simulator's per-sweep fixpoint, with inheritance enabled (the
/// simulator skips the call when it is not): relaxes `running` to the
/// same fixpoint as ComputeRunningPriorities, under the same input
/// contract, with no per-call allocation.
void ComputeRunningPrioritiesDense(JobSlotMap<Priority>& running,
                                   const WaitGraph& waits);

}  // namespace pcpda

#endif  // PCPDA_SCHED_INHERITANCE_H_
