#include "txn/job.h"

#include <algorithm>

#include "common/check.h"
#include "common/sorted_vector.h"
#include "common/strings.h"

namespace pcpda {

const char* ToString(JobState state) {
  switch (state) {
    case JobState::kActive:
      return "active";
    case JobState::kCommitted:
      return "committed";
    case JobState::kDropped:
      return "dropped";
  }
  return "unknown";
}

Job::Job(JobId id, const TransactionSet* set, SpecId spec_id, int instance,
         Tick release_time, Tick absolute_deadline) {
  Reset(id, set, spec_id, instance, release_time, absolute_deadline);
}

void Job::Reset(JobId id, const TransactionSet* set, SpecId spec_id,
                int instance, Tick release_time, Tick absolute_deadline) {
  id_ = id;
  spec_ = &set->spec(spec_id);
  base_priority_ = set->priority(spec_id);
  spec_id_ = spec_id;
  instance_ = instance;
  release_time_ = release_time;
  absolute_deadline_ = absolute_deadline;
  state_ = JobState::kActive;
  running_priority_ = base_priority_;
  step_index_ = 0;
  remaining_in_step_ = spec_->body.front().duration;
  step_admitted_ = false;
  data_read_.clear();
  workspace_.Clear();
  undo_log_.clear();
  commit_time_ = kNoTick;
  restarts_ = 0;
  deadline_miss_recorded_ = false;
}

bool Job::ExecuteTick() {
  PCPDA_CHECK(!BodyDone());
  PCPDA_CHECK(remaining_in_step_ > 0);
  --remaining_in_step_;
  if (remaining_in_step_ > 0) return false;
  ++step_index_;
  step_admitted_ = false;
  if (!BodyDone()) {
    remaining_in_step_ = current_step().duration;
  }
  return true;
}

void Job::AdvanceWithinStep(Tick ticks) {
  PCPDA_CHECK(!BodyDone());
  PCPDA_CHECK(ticks > 0 && ticks < remaining_in_step_);
  remaining_in_step_ -= ticks;
}

void Job::InflateCurrentStep(Tick extra) {
  PCPDA_CHECK(!BodyDone());
  PCPDA_CHECK(extra > 0);
  remaining_in_step_ += extra;
}

Tick Job::RemainingWork() const {
  if (BodyDone()) return 0;
  Tick total = remaining_in_step_;
  const auto& body = spec().body;
  for (std::size_t i = step_index_ + 1; i < body.size(); ++i) {
    total += body[i].duration;
  }
  return total;
}

bool Job::MayWrite(ItemId item) const {
  for (const Step& step : spec().body) {
    if (step.kind == StepKind::kWrite && step.item == item) return true;
  }
  return false;
}

void Job::MarkCommitted(Tick tick) {
  PCPDA_CHECK(state_ == JobState::kActive);
  PCPDA_CHECK(BodyDone());
  state_ = JobState::kCommitted;
  commit_time_ = tick;
}

void Job::RecordRead(ItemId item) { InsertSorted(data_read_, item); }

void Job::RecordUndo(ItemId item, const Value& before) {
  // First write wins: the oldest pre-image is what an abort must restore.
  const auto it = std::lower_bound(
      undo_log_.begin(), undo_log_.end(), item,
      [](const UndoEntry& entry, ItemId key) { return entry.item < key; });
  if (it != undo_log_.end() && it->item == item) return;
  undo_log_.insert(it, UndoEntry{item, before});
}

void Job::ResetForRestart() {
  PCPDA_CHECK(state_ == JobState::kActive);
  step_index_ = 0;
  remaining_in_step_ = spec().body.front().duration;
  step_admitted_ = false;
  data_read_.clear();
  workspace_.Clear();
  undo_log_.clear();
  ++restarts_;
}

std::string Job::DebugName() const {
  return StrFormat("%s#%d", spec().name.c_str(), instance_);
}

}  // namespace pcpda
