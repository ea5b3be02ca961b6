#include "sched/simulator.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <string_view>

#include "common/check.h"
#include "common/strings.h"
#include "sched/inheritance.h"
#include "sched/scheduler.h"
#include "sim/calendar.h"

namespace pcpda {

namespace {

/// The restart note of an abort a decision ordered: the rule's printed
/// form, or `fallback` for a rule that prints nothing.
const char* RuleNote(DecisionRule rule, const char* fallback) {
  const char* text = ToString(rule);
  return *text != '\0' ? text : fallback;
}

}  // namespace

Simulator::Simulator(const TransactionSet* set, Protocol* protocol,
                     SimulatorOptions options)
    : Simulator(set, /*plan=*/nullptr, protocol, std::move(options)) {}

Simulator::Simulator(const CompiledPlan& plan, Protocol* protocol,
                     SimulatorOptions options)
    : Simulator(&plan.set(), &plan, protocol, std::move(options)) {}

Simulator::Simulator(const TransactionSet* set, const CompiledPlan* plan,
                     Protocol* protocol, SimulatorOptions options)
    : set_(set),
      protocol_(protocol),
      options_(std::move(options)),
      plan_(plan != nullptr ? *plan : CompiledPlan{}),
      owned_ceilings_(plan != nullptr
                          ? nullptr
                          : std::make_unique<const StaticCeilings>(*set)),
      ceilings_(plan != nullptr ? &plan_.ceilings() : owned_ceilings_.get()),
      database_(set->item_count()),
      lock_table_(set->item_count()) {
  PCPDA_CHECK(set != nullptr);
  PCPDA_CHECK(protocol != nullptr);
  if (options_.arrival_schedule == nullptr) {
    // The plan's prebuilt cursor is a byte-identical copy of what
    // MakeCursor() would build from scratch — same heap, same pop order.
    if (plan_.ok()) {
      calendar_cursor_.emplace(plan_.MakeCursor());
    } else {
      calendar_cursor_.emplace(ArrivalCalendar(set_).MakeCursor());
    }
  }
}

Simulator::~Simulator() {
  // Pooled jobs are poisoned; hand them back to ASan before they go.
  for (const std::unique_ptr<Job>& pooled : free_jobs_) {
    ASAN_UNPOISON_MEMORY_REGION(pooled.get(), sizeof(Job));
  }
}

const Job* Simulator::job(JobId id) const {
  const std::unique_ptr<Job>* live = jobs_.find(id);
  return live != nullptr ? live->get() : nullptr;
}

SpecMetrics& Simulator::metrics_for(SpecId spec) {
  PCPDA_CHECK(spec >= 0 &&
              static_cast<std::size_t>(spec) < metrics_.per_spec.size());
  return metrics_.per_spec[static_cast<std::size_t>(spec)];
}

bool Simulator::NeedsLock(const Job& job) const {
  if (job.BodyDone() || job.step_admitted()) return false;
  const Step& step = job.current_step();
  switch (step.kind) {
    case StepKind::kCompute:
      return false;
    case StepKind::kRead:
      return !lock_table_.HoldsRead(job.id(), step.item) &&
             !lock_table_.HoldsWrite(job.id(), step.item);
    case StepKind::kWrite:
      return !lock_table_.HoldsWrite(job.id(), step.item);
  }
  PCPDA_UNREACHABLE("bad StepKind");
}

LockMode Simulator::NeededMode(const Job& job) const {
  return job.current_step().kind == StepKind::kRead ? LockMode::kRead
                                                    : LockMode::kWrite;
}

void Simulator::TakeDueArrivals() {
  due_.clear();
  if (options_.arrival_schedule != nullptr) {
    const std::vector<Arrival>& all =
        options_.arrival_schedule->arrivals();
    while (schedule_pos_ < all.size() &&
           all[schedule_pos_].tick == tick_) {
      due_.push_back(all[schedule_pos_++]);
    }
    PCPDA_CHECK_MSG(
        schedule_pos_ >= all.size() || all[schedule_pos_].tick > tick_,
        "arrival schedule fell behind the simulation clock");
    return;
  }
  calendar_cursor_->PopAt(tick_, due_);
}

Tick Simulator::NextArrivalTick() const {
  if (options_.arrival_schedule != nullptr) {
    const std::vector<Arrival>& all =
        options_.arrival_schedule->arrivals();
    return schedule_pos_ < all.size() ? all[schedule_pos_].tick : kNoTick;
  }
  return calendar_cursor_->NextTick();
}

void Simulator::ReleaseArrivals() {
  TakeDueArrivals();
  if (fault_plan_ != nullptr) fault_plan_->TransformArrivals(tick_, due_);
  if (!due_.empty()) dispatch_dirty_ = true;
  for (const Arrival& arrival : due_) {
    const Tick rel_deadline = set_->RelativeDeadline(arrival.spec);
    const Tick deadline =
        rel_deadline == kNoTick ? kNoTick : tick_ + rel_deadline;
    const JobId id = next_job_id_++;
    std::unique_ptr<Job>& slot = jobs_[id];
    if (free_jobs_.empty()) {
      slot = std::make_unique<Job>(id, set_, arrival.spec, arrival.instance,
                                   tick_, deadline);
    } else {
      // Recycle a retired job: same address for its whole new life, and
      // its vectors keep their capacity.
      slot = std::move(free_jobs_.back());
      free_jobs_.pop_back();
      ASAN_UNPOISON_MEMORY_REGION(slot.get(), sizeof(Job));
      slot->Reset(id, set_, arrival.spec, arrival.instance, tick_, deadline);
    }
    active_jobs_.push_back(slot.get());
    ++metrics_for(arrival.spec).released;
    if (options_.record_trace) {
      TraceEvent event;
      event.tick = tick_;
      event.kind = TraceKind::kArrival;
      event.job = id;
      event.spec = arrival.spec;
      event.instance = arrival.instance;
      trace_.AddEvent(event);
    }
  }
}

Tick Simulator::NextDeadline() const {
  Tick next = kNoTick;
  for (const Job* job : active_jobs_) {
    if (!job->deadline_miss_recorded()) {
      next = std::min(next, job->absolute_deadline());
    }
  }
  return next;
}

void Simulator::CheckDeadlines() {
  // Nearly every tick has nothing due; find that out before copying.
  if (NextDeadline() > tick_) return;
  // kDrop retires jobs mid-loop, so walk a snapshot of the scan set.
  deadline_scratch_ = active_jobs_;
  for (Job* active : deadline_scratch_) {
    Job& job = *active;
    if (job.deadline_miss_recorded() || job.absolute_deadline() > tick_) {
      continue;
    }
    job.set_deadline_miss_recorded();
    ++metrics_for(job.spec_id()).deadline_misses;
    if (options_.record_trace) {
      TraceEvent event;
      event.tick = job.absolute_deadline();
      event.kind = TraceKind::kDeadlineMiss;
      event.job = job.id();
      event.spec = job.spec_id();
      event.instance = job.instance();
      trace_.AddEvent(event);
    }
    switch (options_.miss_policy) {
      case DeadlineMissPolicy::kContinue:
        break;
      case DeadlineMissPolicy::kDrop:
        DropJob(job);
        break;
      case DeadlineMissPolicy::kHalt:
        metrics_.halted_on_miss = true;
        halted_ = true;
        return;
    }
  }
}

void Simulator::ApplyFaults() {
  if (fault_plan_ == nullptr) return;
  const auto holds_lock = [this](JobId id) {
    return !lock_table_.read_items(id).empty() ||
           !lock_table_.write_items(id).empty();
  };
  for (const JobFault& fault :
       fault_plan_->JobFaultsAt(tick_, active_jobs_, holds_lock)) {
    Job* victim = const_cast<Job*>(job(fault.job));
    PCPDA_CHECK(victim != nullptr && victim->active());
    // Abort-style faults are unsound for early-release protocols (CCP
    // hands locks back before commit and assumes no aborts); suppress
    // them rather than corrupt the database.
    const bool is_abort = fault.kind == FaultKind::kAbort ||
                          fault.kind == FaultKind::kRestartInCs;
    const bool skipped = is_abort && protocol_->releases_early();
    if (options_.record_trace) {
      TraceEvent event;
      event.tick = tick_;
      event.kind = TraceKind::kFault;
      event.job = victim->id();
      event.spec = victim->spec_id();
      event.instance = victim->instance();
      event.note = skipped ? fault.note + " (skipped: early-release)"
                           : fault.note;
      trace_.AddEvent(event);
    }
    if (skipped) {
      ++metrics_.faults.skipped_aborts;
      continue;
    }
    dispatch_dirty_ = true;
    switch (fault.kind) {
      case FaultKind::kAbort:
        ++metrics_.faults.injected_aborts;
        AbortAndRestart(*victim, fault.note.c_str());
        break;
      case FaultKind::kRestartInCs:
        ++metrics_.faults.injected_restarts;
        AbortAndRestart(*victim, fault.note.c_str());
        break;
      case FaultKind::kOverrun:
        ++metrics_.faults.overruns;
        metrics_.faults.overrun_ticks += fault.extra;
        victim->InflateCurrentStep(fault.extra);
        break;
      case FaultKind::kDelayArrival:
      case FaultKind::kBurstArrival:
        PCPDA_UNREACHABLE("arrival faults are not job faults");
    }
  }
}

Job* Simulator::ResolveDispatch() {
  // Abort applications (HP victims, optimistic self-aborts) restart the
  // resolution; they always release locks or clear protocol state, so the
  // bound below only trips on a protocol that aborts without progress.
  std::size_t abort_rounds = 0;
  const std::size_t max_abort_rounds =
      16 + 4 * static_cast<std::size_t>(next_job_id_);
  for (;;) {
    PCPDA_CHECK_MSG(abort_rounds++ <= max_abort_rounds,
                    "dispatch resolution is not making progress");
    blocked_now_.clear();
    granted_decision_.clear();

    // The wait graph persists across ticks (outstanding denied requests
    // keep donating priority); drop edges of jobs that are gone. A job
    // is in the active scan set iff it is still active() (RetireJob is
    // only reached through MarkCommitted/MarkDropped) and a pooled one no
    // longer resolves, so the live map answers membership without
    // building a key set. ClearWaits mutates the edge list, so collect
    // first.
    stale_waiters_scratch_.clear();
    for (JobId waiter : wait_graph_.waiter_ids()) {
      const Job* live = job(waiter);
      if (live == nullptr || !live->active()) {
        stale_waiters_scratch_.push_back(waiter);
      }
    }
    for (JobId waiter : stale_waiters_scratch_) {
      wait_graph_.ClearWaits(waiter);
    }

    // Evaluate every outstanding lock request against the protocol. The
    // locking conditions compare the requester's RUNNING priority
    // (Section 7 of the paper: "priority ... always refers to ... its
    // running priority"), and running priorities in turn depend on the
    // wait-for edges the decisions create — so iterate to a fixpoint.
    // Each sweep walks jobs in descending running priority, so a waiter's
    // denial raises its blocker before the blocker is evaluated; the
    // sweep cap guards against pathological oscillation.
    const std::size_t max_sweeps = 4 * active_jobs_.size() + 8;
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      if (protocol_->uses_priority_inheritance() &&
          !wait_graph_.waiter_ids().empty()) {
        running_scratch_.clear();
        for (Job* job : active_jobs_) {
          running_scratch_[job->id()] = job->base_priority();
        }
        ComputeRunningPrioritiesDense(running_scratch_, wait_graph_);
        for (Job* job : active_jobs_) {
          job->set_running_priority(running_scratch_.at(job->id()));
        }
      } else {
        // Nobody donates priority: every job runs at its base priority.
        for (Job* job : active_jobs_) {
          job->set_running_priority(job->base_priority());
        }
      }
      dispatch_scratch_ = active_jobs_;
      SortDispatchOrder(dispatch_scratch_);
      bool changed = false;
      for (Job* job : dispatch_scratch_) {
        if (!NeedsLock(*job)) {
          if (wait_graph_.IsWaiting(job->id())) {
            wait_graph_.ClearWaits(job->id());
            changed = true;
          }
          blocked_now_.erase(job->id());
          continue;
        }
        const Step& step = job->current_step();
        LockRequest request{job, step.item, NeededMode(*job)};
        LockDecision& decision = decision_scratch_;
        decision.clear();
        protocol_->Decide(request, decision);
        ++metrics_.lock_decisions;
        if (decision.kind == LockDecision::Kind::kBlock) {
          holders_scratch_.assign(decision.jobs.begin(),
                                  decision.jobs.end());
          std::sort(holders_scratch_.begin(), holders_scratch_.end());
          holders_scratch_.erase(std::unique(holders_scratch_.begin(),
                                             holders_scratch_.end()),
                                 holders_scratch_.end());
          // HoldersBlocking yields the stored sorted-unique holder set,
          // so this compares the same sets the std::set version did.
          if (wait_graph_.HoldersBlocking(job->id()) != holders_scratch_) {
            wait_graph_.SetWaits(job->id(), decision.jobs);
            changed = true;
          }
          PendingBlock& pb = blocked_now_[job->id()];
          pb.item = request.item;
          pb.mode = request.mode;
          pb.reason = decision.reason;
          pb.blockers = decision.jobs;
          pb.rule = decision.rule;
        } else {
          if (wait_graph_.IsWaiting(job->id())) {
            wait_graph_.ClearWaits(job->id());
            changed = true;
          }
          blocked_now_.erase(job->id());
          // A plain grant is only read back for its trace note.
          if (decision.kind != LockDecision::Kind::kGrant ||
              options_.record_trace) {
            granted_decision_[job->id()] = decision;
          }
        }
        if (changed) break;  // priorities moved: restart the sweep
      }
      if (!changed) break;
    }

    // Dispatch the highest running-priority job that is not blocked.
    // dispatch_scratch_ still holds the final sweep's order — the same
    // order the running map from that sweep would produce.
    Job* chosen = nullptr;
    for (Job* job : dispatch_scratch_) {
      if (!blocked_now_.contains(job->id())) {
        chosen = job;
        break;
      }
    }
    if (chosen != nullptr) {
      const LockDecision* granted = granted_decision_.find(chosen->id());
      if (granted != nullptr &&
          granted->kind == LockDecision::Kind::kAbortAndGrant) {
        // Apply the aborts, then re-resolve against the new lock state.
        for (JobId victim_id : granted->jobs) {
          Job* victim = const_cast<Job*>(job(victim_id));
          PCPDA_CHECK_MSG(victim != nullptr && victim->active(),
                          "abort victim not active");
          AbortAndRestart(*victim, RuleNote(granted->rule, "abort"));
        }
        continue;
      }
      if (granted != nullptr &&
          granted->kind == LockDecision::Kind::kAbortRequester) {
        // Optimistic self-abort: restart the requester, then re-resolve.
        AbortAndRestart(*chosen, RuleNote(granted->rule, "self-abort"));
        continue;
      }
    }
    return chosen;
  }
}

bool Simulator::HandleOneDeadlock() {
  auto cycle = wait_graph_.FindCycle();
  if (!cycle.has_value()) return false;
  ++metrics_.deadlocks;
  if (options_.record_trace) {
    TraceEvent event;
    event.tick = tick_;
    event.kind = TraceKind::kDeadlock;
    event.others = *cycle;
    if (!cycle->empty()) {
      const Job* first = job(cycle->front());
      if (first != nullptr) {
        event.job = first->id();
        event.spec = first->spec_id();
        event.instance = first->instance();
      }
    }
    trace_.AddEvent(event);
  }
  if (options_.deadlock_policy == DeadlockPolicy::kHalt) {
    metrics_.halted_on_deadlock = true;
    halted_ = true;
    return true;
  }
  // Abort the lowest-base-priority member of the cycle; the caller
  // re-resolves dispatch against the freed locks.
  Job* victim = nullptr;
  for (JobId id : *cycle) {
    Job* member = const_cast<Job*>(job(id));
    PCPDA_CHECK(member != nullptr);
    if (victim == nullptr ||
        member->base_priority() < victim->base_priority()) {
      victim = member;
    }
  }
  PCPDA_CHECK(victim != nullptr);
  AbortAndRestart(*victim, "deadlock-victim");
  return true;
}

void Simulator::AdmitStep(Job& job) {
  PCPDA_CHECK(!job.BodyDone());
  PCPDA_CHECK(!job.step_admitted());
  const Step& step = job.current_step();
  if (step.kind == StepKind::kCompute) {
    // Flag-only change: NeedsLock was already false, dispatch unaffected.
    job.set_step_admitted(true);
    return;
  }
  // Lock acquisition and the RecordRead below feed later decisions (the
  // wr-guard reads other jobs' dynamic read sets), so the memo dies here.
  dispatch_dirty_ = true;
  const bool needed_grant = NeedsLock(job);
  if (needed_grant) {
    if (step.kind == StepKind::kRead) {
      lock_table_.AcquireRead(job.id(), step.item);
    } else {
      lock_table_.AcquireWrite(job.id(), step.item);
    }
    if (options_.record_trace) {
      TraceEvent event;
      event.tick = tick_;
      event.kind = TraceKind::kLockGrant;
      event.job = job.id();
      event.spec = job.spec_id();
      event.instance = job.instance();
      event.item = step.item;
      event.mode = NeededMode(job);
      const LockDecision* granted = granted_decision_.find(job.id());
      if (granted != nullptr) event.note = ToString(granted->rule);
      trace_.AddEvent(event);
    }
  }
  if (step.kind == StepKind::kRead) {
    // The read takes effect at admission: sample the value (the job's own
    // workspace first — such reads are local to the transaction).
    const bool own = job.workspace().Contains(step.item);
    const Value value =
        own ? *job.workspace().Get(step.item) : database_.Read(step.item);
    if (!own) job.RecordRead(step.item);
    if (options_.record_history) {
      history_.RecordRead(job.id(), step.item, tick_, seq_++, value, own);
    }
  }
  job.set_step_admitted(true);
}

void Simulator::CompleteStep(Job& job, const Step& step) {
  if (step.kind == StepKind::kWrite) {
    if (protocol_->update_model() == UpdateModel::kWorkspace) {
      job.workspace().Put(step.item, Value{job.id(), 0});
    } else {
      job.RecordUndo(step.item, database_.Read(step.item));
      database_.Write(step.item, job.id());
      if (options_.record_history) {
        history_.RecordWrite(job.id(), step.item, tick_, seq_++);
      }
    }
  }
  // CCP-style early unlocking once the protocol allows it. Skipped when
  // the body is done: the commit releases everything anyway.
  if (job.BodyDone()) return;
  for (const auto& [item, mode] : protocol_->EarlyReleases(job)) {
    lock_table_.Release(job.id(), item, mode);
    if (options_.record_trace) {
      TraceEvent event;
      event.tick = tick_;
      event.kind = TraceKind::kEarlyRelease;
      event.job = job.id();
      event.spec = job.spec_id();
      event.instance = job.instance();
      event.item = item;
      event.mode = mode;
      trace_.AddEvent(event);
    }
  }
}

void Simulator::Commit(Job& job) {
  PCPDA_CHECK(job.BodyDone());
  // Forward validation (optimistic protocols): abort the victims the
  // protocol names before the commit takes effect.
  for (JobId victim_id : protocol_->CommitVictims(job)) {
    Job* victim = const_cast<Job*>(this->job(victim_id));
    PCPDA_CHECK_MSG(victim != nullptr && victim->active(),
                    "commit victim not active");
    PCPDA_CHECK_MSG(victim->id() != job.id(),
                    "a committing job cannot be its own victim");
    AbortAndRestart(*victim, "validation");
  }
  // Deferred updates reach the database atomically at commit.
  if (protocol_->update_model() == UpdateModel::kWorkspace) {
    for (ItemId item : job.workspace().items()) {
      database_.Write(item, job.id());
      if (options_.record_history) {
        history_.RecordWrite(job.id(), item, tick_, seq_++);
      }
    }
  }
  lock_table_.ReleaseAll(job.id());
  const Tick commit_time = tick_ + 1;
  if (options_.record_history) {
    history_.RecordCommit(job.id(), job.spec_id(), job.instance(),
                          commit_time, seq_++);
  }
  if (options_.record_trace) {
    TraceEvent event;
    event.tick = commit_time;
    event.kind = TraceKind::kCommit;
    event.job = job.id();
    event.spec = job.spec_id();
    event.instance = job.instance();
    trace_.AddEvent(event);
  }
  SpecMetrics& m = metrics_for(job.spec_id());
  ++m.committed;
  const Tick response = commit_time - job.release_time();
  m.max_response = std::max(m.max_response, response);
  m.total_response += static_cast<double>(response);
  m.AddResponse(response);
  const Tick* eb = effective_blocking_by_job_.find(job.id());
  if (eb != nullptr) {
    m.max_effective_blocking = std::max(m.max_effective_blocking, *eb);
    effective_blocking_by_job_.erase(job.id());
  }
  job.MarkCommitted(commit_time);
  RetireJob(job);
  protocol_->OnCommitApplied(job);
}

void Simulator::AbortAndRestart(Job& victim, const char* why) {
  dispatch_dirty_ = true;
  // Undo in-place writes (newest pre-images are irrelevant: the undo log
  // keeps the value from before the job's first write of each item).
  for (const auto& [item, before] : victim.undo_log()) {
    database_.Restore(item, before);
  }
  lock_table_.ReleaseAll(victim.id());
  wait_graph_.ClearWaits(victim.id());
  history_.DiscardPending(victim.id());
  ++metrics_for(victim.spec_id()).restarts;
  if (options_.record_trace) {
    TraceEvent event;
    event.tick = tick_;
    event.kind = TraceKind::kRestart;
    event.job = victim.id();
    event.spec = victim.spec_id();
    event.instance = victim.instance();
    event.note = why;
    trace_.AddEvent(event);
  }
  victim.ResetForRestart();
  protocol_->OnAbortApplied(victim);
}

void Simulator::DropJob(Job& job) {
  dispatch_dirty_ = true;
  for (const auto& [item, before] : job.undo_log()) {
    database_.Restore(item, before);
  }
  lock_table_.ReleaseAll(job.id());
  wait_graph_.ClearWaits(job.id());
  history_.DiscardPending(job.id());
  ++metrics_for(job.spec_id()).dropped;
  if (options_.record_trace) {
    TraceEvent event;
    event.tick = tick_;
    event.kind = TraceKind::kDrop;
    event.job = job.id();
    event.spec = job.spec_id();
    event.instance = job.instance();
    trace_.AddEvent(event);
  }
  const Tick* eb = effective_blocking_by_job_.find(job.id());
  if (eb != nullptr) {
    SpecMetrics& m = metrics_for(job.spec_id());
    m.max_effective_blocking = std::max(m.max_effective_blocking, *eb);
    effective_blocking_by_job_.erase(job.id());
  }
  job.MarkDropped();
  RetireJob(job);
  protocol_->OnAbortApplied(job);
}

void Simulator::RetireJob(Job& job) {
  dispatch_dirty_ = true;
  PCPDA_CHECK(!job.active());
  const auto it =
      std::find(active_jobs_.begin(), active_jobs_.end(), &job);
  PCPDA_CHECK_MSG(it != active_jobs_.end(),
                  "retiring a job that was not in the active set");
  active_jobs_.erase(it);
  retired_this_tick_.push_back(&job);
}

void Simulator::FreeRetiredJobs() {
  for (const Job* retired : retired_this_tick_) {
    // Read the id first: from the poisoning on, `retired` is off limits
    // until ReleaseArrivals recycles it.
    const JobId id = retired->id();
    std::unique_ptr<Job>& slot = jobs_.at(id);
    ASAN_POISON_MEMORY_REGION(slot.get(), sizeof(Job));
    free_jobs_.push_back(std::move(slot));
    jobs_.erase(id);
  }
  retired_this_tick_.clear();
}

void Simulator::FastForward(Job* runner, StepKind runner_kind,
                            Tick* scheduled_ticks) {
  // Nothing can happen before the next arrival unless a job in flight
  // changes something: with none in flight, deadlines, locks, wait edges
  // and ceilings stay put, so the gap is idle up to that arrival. With a
  // clean dispatch memo the same holds while the runner stays inside its
  // admitted step and no deadline comes due: each such tick would reuse
  // the resolution, run the same step and credit the same counters. The
  // leap stops one tick short of the step's end, so the per-tick loop
  // still completes the step and fires whatever follows.
  Tick end = NextArrivalTick();
  if (end == kNoTick || end > options_.horizon) end = options_.horizon;
  if (active_jobs_.empty()) {
    runner = nullptr;
  } else {
    if (dispatch_dirty_ || runner == nullptr) return;
    end = std::min({end, tick_ + runner->remaining_in_step() - 1,
                    NextDeadline()});
    // Leapt busy ticks are scheduled ticks: the budget runs out at the
    // tick it would have without the leap.
    if (options_.max_sim_ticks > 0) {
      end = std::min(end, tick_ + options_.max_sim_ticks - *scheduled_ticks);
    }
  }
  if (end <= tick_) return;
  const Tick span = end - tick_;
  if (runner != nullptr) {
    runner->AdvanceWithinStep(span);
    metrics_for(runner->spec_id()).busy_ticks += span;
    *scheduled_ticks += span;
  }
  RecordTick(runner, runner_kind, span);
  if (auditor_ != nullptr) auditor_->RepeatLastAudit(tick_, span);
  tick_ = end;
}

void Simulator::ExecuteTick(Job& job) {
  if (!job.step_admitted()) AdmitStep(job);
  const Step step = job.current_step();
  const bool step_done = job.ExecuteTick();
  metrics_for(job.spec_id()).busy_ticks += 1;
  if (step_done) {
    // The step cursor moved (and early releases / commit may follow).
    dispatch_dirty_ = true;
    CompleteStep(job, step);
    if (job.BodyDone()) Commit(job);
  }
}

void Simulator::RecordTick(const Job* runner, StepKind runner_kind,
                           Tick ticks) {
  if (runner == nullptr) metrics_.idle_ticks += ticks;
  // Blocking/preemption accounting. blocked_scratch_ becomes the next
  // tick's blocked_prev_ via the swap below, keeping both maps' slots.
  blocked_scratch_.clear();
  for (JobId id : blocked_now_.ids()) {
    const PendingBlock& pb = blocked_now_.at(id);
    const Job* blocked = job(id);
    PCPDA_CHECK(blocked != nullptr);
    blocked_scratch_[id] = pb.rule;
    SpecMetrics& m = metrics_for(blocked->spec_id());
    m.blocked_ticks += ticks;
    if (runner != nullptr &&
        runner->base_priority() < blocked->base_priority()) {
      m.effective_blocking_ticks += ticks;
      effective_blocking_by_job_[id] += ticks;
    }
    const DecisionRule* prev = blocked_prev_.find(id);
    const bool new_episode = prev == nullptr;
    if (new_episode ||
        std::string_view(ToString(*prev)) != ToString(pb.rule)) {
      // New blocking episode, or the printed denial changed mid-episode
      // (e.g. a ceiling block turning into a wr-guard conflict). The
      // T*-guard and the ceiling denial print alike, so a switch between
      // them continues the episode, as the text notes did.
      if (new_episode) {
        if (pb.reason == BlockReason::kCeiling) {
          ++m.ceiling_blocks;
        } else {
          ++m.conflict_blocks;
        }
      }
      if (options_.record_trace) {
        TraceEvent event;
        event.tick = tick_;
        event.kind = TraceKind::kBlock;
        event.job = id;
        event.spec = blocked->spec_id();
        event.instance = blocked->instance();
        event.item = pb.item;
        event.mode = pb.mode;
        event.reason = pb.reason;
        event.others = pb.blockers;
        event.note = ToString(pb.rule);
        trace_.AddEvent(event);
      }
    }
  }
  blocked_prev_.swap(blocked_scratch_);
  for (const Job* j : active_jobs_) {
    if (runner != nullptr && j->id() == runner->id()) continue;
    if (!blocked_now_.contains(j->id())) {
      metrics_for(j->spec_id()).preempted_ticks += ticks;
    }
  }

  // The ceiling is a function of the lock table: sample it again only
  // after a grant or release.
  if (ceiling_version_ != lock_table_.version()) {
    ceiling_ = protocol_->CurrentCeiling();
    ceiling_version_ = lock_table_.version();
  }
  const Priority ceiling = ceiling_;
  metrics_.max_ceiling = Max(metrics_.max_ceiling, ceiling);

  if (!options_.record_trace) return;
  TickRecord record;
  record.tick = tick_;
  record.ceiling = ceiling;
  if (runner != nullptr) {
    record.running_job = runner->id();
    record.running_spec = runner->spec_id();
    record.running_kind = runner_kind;
  }
  for (JobId id : blocked_now_.ids()) {
    const PendingBlock& pb = blocked_now_.at(id);
    const Job* blocked = job(id);
    BlockedSample sample;
    sample.job = id;
    sample.spec = blocked->spec_id();
    sample.item = pb.item;
    sample.mode = pb.mode;
    sample.reason = pb.reason;
    sample.blockers = pb.blockers;
    record.blocked.push_back(std::move(sample));
  }
  // A fast-forwarded stretch gets one identical record per tick.
  for (Tick last = tick_ + ticks - 1; record.tick < last; ++record.tick) {
    trace_.AddTick(record);
  }
  trace_.AddTick(std::move(record));
}

void Simulator::AuditNow(bool resolved) {
  if (auditor_ == nullptr) return;
  const std::size_t before = auditor_->report().violations.size();
  if (resolved || dispatch_dirty_) {
    // The audit scans the active set plus this tick's retirements (so a
    // commit/drop that leaks a lock or a workspace write is caught at
    // retirement time); anything older is back in the job pool.
    audit_jobs_.assign(active_jobs_.begin(), active_jobs_.end());
    audit_jobs_.insert(audit_jobs_.end(), retired_this_tick_.begin(),
                       retired_this_tick_.end());
    audit_blocked_.clear();
    for (JobId id : blocked_now_.ids()) {
      audit_blocked_.push_back({id, &blocked_now_.at(id).blockers});
    }
    AuditScope scope;
    scope.tick = tick_;
    scope.set = set_;
    scope.ceilings = ceilings_;
    scope.protocol = protocol_;
    scope.locks = &lock_table_;
    scope.database = &database_;
    scope.waits = &wait_graph_;
    scope.jobs = &audit_jobs_;
    scope.blocked = &audit_blocked_;
    auditor_->AuditTick(scope);
  } else {
    // Nothing the audit reads has changed since the last audited tick:
    // every input moves only where dispatch_dirty_ is set, and a retired
    // job returns to the pool at the top of a tick that starts dirty.
    auditor_->RepeatLastAudit(tick_);
  }
  if (options_.record_trace) {
    const auto& violations = auditor_->report().violations;
    for (std::size_t i = before; i < violations.size(); ++i) {
      TraceEvent event;
      event.tick = tick_;
      event.kind = TraceKind::kAuditViolation;
      event.note = violations[i].check + ": " + violations[i].detail;
      trace_.AddEvent(event);
    }
  }
}

SimResult Simulator::Run() {
  PCPDA_CHECK_MSG(!ran_, "Simulator::Run may be called once");
  ran_ = true;
  SimResult result;
  if (options_.horizon <= 0) {
    result.status = Status::InvalidArgument("horizon must be positive");
    return result;
  }
  if (options_.faults.enabled()) {
    Status valid = ValidateFaultConfig(options_.faults, *set_);
    if (!valid.ok()) {
      result.status = valid;
      return result;
    }
    fault_plan_ = std::make_unique<FaultPlan>(options_.faults, set_);
  }
  if (options_.audit) auditor_ = std::make_unique<InvariantAuditor>();
  protocol_->Attach(this);
  trace_.SetCapacity(options_.max_trace_events);
  metrics_.per_spec.assign(static_cast<std::size_t>(set_->size()),
                           SpecMetrics{});
  metrics_.horizon = options_.horizon;

  // Ticks cannot be fast-forwarded under a fault plan, which may inject
  // arrivals or draw per-tick randomness. Under the auditor they can while
  // its last verdict is clean: leapt ticks change no state, so they get
  // that verdict; a failing one is recorded tick by tick.
  const bool may_fast_forward = fault_plan_ == nullptr;

  tick_ = 0;
  Status watchdog_status;
  Tick scheduled_ticks = 0;
  while (tick_ < options_.horizon && !halted_) {
    if (options_.cancel != nullptr &&
        options_.cancel->load(std::memory_order_relaxed)) {
      watchdog_status = Status::DeadlineExceeded(StrFormat(
          "run cancelled at tick %lld of %lld",
          static_cast<long long>(tick_),
          static_cast<long long>(options_.horizon)));
      break;
    }
    if (options_.max_sim_ticks > 0 &&
        scheduled_ticks >= options_.max_sim_ticks) {
      watchdog_status = Status::DeadlineExceeded(StrFormat(
          "tick budget %lld exhausted at tick %lld of %lld",
          static_cast<long long>(options_.max_sim_ticks),
          static_cast<long long>(tick_),
          static_cast<long long>(options_.horizon)));
      break;
    }
    ++scheduled_ticks;
    FreeRetiredJobs();
    ReleaseArrivals();
    CheckDeadlines();
    if (halted_) break;
    ApplyFaults();
    Job* runner;
    const bool resolved = dispatch_dirty_;
    if (resolved) {
      runner = ResolveDispatch();
      while (HandleOneDeadlock()) {
        if (halted_) break;
        runner = ResolveDispatch();
      }
      if (halted_) break;
      // The resolution (blocked_now_, wait edges, runner) stays valid
      // until one of the marked mutation points fires; the deadlock scan
      // is covered too — an unchanged wait graph cannot grow a cycle.
      dispatch_dirty_ = false;
      last_runner_ = runner;
    } else {
      runner = last_runner_;
    }
    const StepKind runner_kind =
        (runner != nullptr && !runner->BodyDone())
            ? runner->current_step().kind
            : StepKind::kCompute;
    if (runner != nullptr) ExecuteTick(*runner);
    RecordTick(runner, runner_kind);
    AuditNow(resolved);
    ++tick_;
    if (may_fast_forward &&
        (auditor_ == nullptr || auditor_->last_audit_clean())) {
      FastForward(runner, runner_kind, &scheduled_ticks);
    }
  }

  // Jobs still in flight whose deadline lies beyond the horizon never got
  // the chance to miss (or meet) it; MissRatio excludes them.
  for (const Job* pending : active_jobs_) {
    if (!pending->deadline_miss_recorded()) {
      ++metrics_for(pending->spec_id()).pending_at_horizon;
    }
  }

  // Fold leftover per-job blocking maxima into the per-spec metrics.
  for (JobId id : effective_blocking_by_job_.ids()) {
    const Job* j = job(id);
    if (j == nullptr) continue;
    SpecMetrics& m = metrics_for(j->spec_id());
    m.max_effective_blocking =
        std::max(m.max_effective_blocking, effective_blocking_by_job_.at(id));
  }

  if (fault_plan_ != nullptr) {
    metrics_.faults.delayed_arrivals = fault_plan_->delayed_count();
    metrics_.faults.delay_ticks = fault_plan_->delay_ticks();
    metrics_.faults.burst_arrivals = fault_plan_->burst_count();
  }

  result.metrics = std::move(metrics_);
  result.trace = std::move(trace_);
  result.history = std::move(history_);
  result.deadlock_detected = result.metrics.deadlocks > 0;
  if (auditor_ != nullptr) {
    result.audit = auditor_->TakeReport();
    if (!result.audit.ok()) {
      const std::int64_t total =
          static_cast<std::int64_t>(result.audit.violations.size()) +
          result.audit.suppressed;
      result.status = Status::Internal(StrFormat(
          "invariant audit failed: %lld violation(s); first: %s",
          static_cast<long long>(total),
          result.audit.violations.front().DebugString().c_str()));
    }
  }
  // A watchdog abandonment trumps everything else: the run never reached
  // the horizon, so neither the metrics nor the audit verdict is final.
  if (!watchdog_status.ok()) result.status = watchdog_status;
  return result;
}

}  // namespace pcpda
