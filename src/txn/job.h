#ifndef PCPDA_TXN_JOB_H_
#define PCPDA_TXN_JOB_H_

#include <string>
#include <vector>

#include "common/check.h"
#include "common/types.h"
#include "db/value.h"
#include "txn/spec.h"
#include "txn/workspace.h"

namespace pcpda {

/// Lifecycle of a job.
enum class JobState : std::uint8_t {
  /// Released; may run or be blocked depending on locks and priority.
  kActive,
  /// Committed successfully.
  kCommitted,
  /// Dropped by the deadline-miss policy.
  kDropped,
};

const char* ToString(JobState state);

/// One entry of a job's undo log: the value `item` held before the job's
/// first in-place write of it.
struct UndoEntry {
  ItemId item = kInvalidItem;
  Value before;
};

/// One released instance of a transaction spec. Owned by the simulator;
/// protocols observe jobs through const references.
///
/// The per-job data state (read set, workspace, undo log) is held in
/// sorted flat vectors. The simulator pools retired jobs and re-initialises
/// one in place with Reset for each release, so the vectors keep their
/// capacity and a steady-state release allocates nothing.
class Job {
 public:
  Job(JobId id, const TransactionSet* set, SpecId spec_id, int instance,
      Tick release_time, Tick absolute_deadline);

  /// Re-initialises the job as a fresh release with these arguments:
  /// afterwards it equals Job(id, set, ...) in every observable, and only
  /// the capacity of its vectors is kept.
  void Reset(JobId id, const TransactionSet* set, SpecId spec_id,
             int instance, Tick release_time, Tick absolute_deadline);

  JobId id() const { return id_; }
  SpecId spec_id() const { return spec_id_; }
  const TransactionSpec& spec() const { return *spec_; }
  /// 0-based release index of this instance.
  int instance() const { return instance_; }
  Tick release_time() const { return release_time_; }
  /// Absolute deadline, or kNoTick if none.
  Tick absolute_deadline() const { return absolute_deadline_; }

  JobState state() const { return state_; }
  bool active() const { return state_ == JobState::kActive; }

  /// The original (assigned) priority P_i of the paper.
  Priority base_priority() const { return base_priority_; }
  /// The running priority: base priority possibly raised by inheritance.
  /// Maintained by the scheduler every tick.
  Priority running_priority() const { return running_priority_; }
  void set_running_priority(Priority p) { running_priority_ = p; }

  // --- Execution progress -------------------------------------------------

  /// Index of the step the job executes next (== body size when done).
  std::size_t step_index() const { return step_index_; }
  /// Ticks still to execute in the current step.
  Tick remaining_in_step() const { return remaining_in_step_; }
  /// The current step. Requires !BodyDone().
  const Step& current_step() const {
    PCPDA_CHECK(!BodyDone());
    return spec_->body[step_index_];
  }
  bool BodyDone() const { return step_index_ >= spec_->body.size(); }
  /// True while the current step's lock has been granted (or none needed).
  bool step_admitted() const { return step_admitted_; }
  void set_step_admitted(bool admitted) { step_admitted_ = admitted; }

  /// Consumes one CPU tick; advances to the next step when the current one
  /// completes. Returns true if the tick finished a step.
  bool ExecuteTick();

  /// Consumes `ticks` CPU ticks without finishing the current step (the
  /// simulator's busy fast-forward). Requires 0 < ticks <
  /// remaining_in_step().
  void AdvanceWithinStep(Tick ticks);

  /// Extends the current step by `extra` ticks (injected WCET overrun).
  /// Requires an unfinished body and extra > 0.
  void InflateCurrentStep(Tick extra);

  /// Remaining execution demand in ticks.
  Tick RemainingWork() const;

  // --- Data state ---------------------------------------------------------

  /// DataRead(T_i) in the paper: the items this job has read so far,
  /// ascending.
  const std::vector<ItemId>& data_read() const { return data_read_; }
  void RecordRead(ItemId item);

  /// x ∈ WriteSet(T_i): the spec body declares a write of `item`. Walks
  /// the body instead of building the set, so it allocates nothing.
  bool MayWrite(ItemId item) const;

  Workspace& workspace() { return workspace_; }
  const Workspace& workspace() const { return workspace_; }

  /// Undo log for update-in-place protocols: the value each item held
  /// before this job's first in-place write of it, ascending by item.
  /// Restored on abort.
  void RecordUndo(ItemId item, const Value& before);
  const std::vector<UndoEntry>& undo_log() const { return undo_log_; }

  // --- Lifecycle ----------------------------------------------------------

  void MarkCommitted(Tick tick);
  void MarkDropped() { state_ = JobState::kDropped; }
  Tick commit_time() const { return commit_time_; }

  /// Restarts the job from its first step (2PL-HP abort). Clears progress,
  /// data-read set and workspace; the restart count increments.
  void ResetForRestart();
  int restarts() const { return restarts_; }

  /// Records that the deadline miss for this job has been counted.
  bool deadline_miss_recorded() const { return deadline_miss_recorded_; }
  void set_deadline_miss_recorded() { deadline_miss_recorded_ = true; }

  /// "T3#2" style label.
  std::string DebugName() const;

 private:
  // Every scalar below is assigned by Reset, which the constructor runs.
  JobId id_;
  /// The spec and its priority, resolved once: the set outlives the job
  /// and both are read on every dispatch.
  const TransactionSpec* spec_;
  Priority base_priority_;
  SpecId spec_id_;
  int instance_;
  Tick release_time_;
  Tick absolute_deadline_;

  JobState state_;
  Priority running_priority_;

  std::size_t step_index_;
  Tick remaining_in_step_;
  bool step_admitted_;

  std::vector<ItemId> data_read_;
  Workspace workspace_;
  std::vector<UndoEntry> undo_log_;

  Tick commit_time_;
  int restarts_;
  bool deadline_miss_recorded_;
};

}  // namespace pcpda

#endif  // PCPDA_TXN_JOB_H_
