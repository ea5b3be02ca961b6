#include "sched/simulator.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <string_view>

#include "common/check.h"
#include "common/strings.h"
#include "sched/inheritance.h"
#include "sched/scheduler.h"

namespace pcpda {

namespace {

/// The restart note of an abort a decision ordered: the rule's printed
/// form, or `fallback` for a rule that prints nothing.
const char* RuleNote(DecisionRule rule, const char* fallback) {
  const char* text = ToString(rule);
  return *text != '\0' ? text : fallback;
}

const CompiledPlan& CheckedPlan(const CompiledPlan& plan) {
  PCPDA_CHECK_MSG(plan.ok(), "Simulator needs a compiled plan");
  return plan;
}

}  // namespace

Simulator::Simulator(const CompiledPlan& plan, Protocol* protocol,
                     SimulatorOptions options)
    : plan_(CheckedPlan(plan)),
      set_(&plan_.set()),
      protocol_(protocol),
      options_(std::move(options)),
      ceilings_(&plan_.ceilings()),
      database_(set_->item_count()),
      lock_table_(set_->item_count()) {
  PCPDA_CHECK(protocol != nullptr);
  if (options_.arrival_schedule == nullptr) {
    calendar_cursor_.emplace(plan_.MakeCursor());
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
  next_arrival_ = NextArrivalTick();
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
    dispatch_order_.push_back(slot.get());
    next_deadline_ = std::min(next_deadline_, deadline);
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

void Simulator::RefreshNextDeadline() {
  next_deadline_ = kNoTick;
  for (const Job* job : active_jobs_) {
    if (!job->deadline_miss_recorded()) {
      next_deadline_ = std::min(next_deadline_, job->absolute_deadline());
    }
  }
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
    RefreshNextDeadline();
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
    // Every active job's verdict is derived afresh. The wait graph
    // persists across ticks (outstanding denied requests keep donating
    // priority); RetireJob drops the edges of jobs that leave.
    for (Job* job : active_jobs_) {
      job->dispatch().blocked = false;
      job->dispatch().granted.clear();
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
    const bool inherits = protocol_->uses_priority_inheritance();
    for (std::size_t sweep = 0; sweep < max_sweeps; ++sweep) {
      if (inherits && !wait_graph_.waiter_ids().empty()) {
        running_scratch_.clear();
        for (Job* job : active_jobs_) {
          running_scratch_[job->id()] = job->base_priority();
        }
        ComputeRunningPrioritiesDense(running_scratch_, wait_graph_);
        for (Job* job : active_jobs_) {
          job->set_running_priority(running_scratch_.at(job->id()));
        }
        priorities_inherited_ = true;
      } else if (priorities_inherited_) {
        // Nobody donates priority any more: back to base priorities.
        // Otherwise every job runs at its base priority already, which
        // is where a release starts.
        for (Job* job : active_jobs_) {
          job->set_running_priority(job->base_priority());
        }
        priorities_inherited_ = false;
      }
      SortDispatchOrder(dispatch_order_);
      bool changed = false;
      for (Job* job : dispatch_order_) {
        DispatchState& state = job->dispatch();
        if (!NeedsLock(*job)) {
          if (wait_graph_.IsWaiting(job->id())) {
            wait_graph_.ClearWaits(job->id());
            changed = true;
          }
          state.blocked = false;
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
          state.blocked = true;
          state.item = request.item;
          state.mode = request.mode;
          state.reason = decision.reason;
          state.rule = decision.rule;
          state.blockers = decision.jobs;
        } else {
          if (wait_graph_.IsWaiting(job->id())) {
            wait_graph_.ClearWaits(job->id());
            changed = true;
          }
          state.blocked = false;
          // A plain grant is only read back for its trace note.
          if (decision.kind != LockDecision::Kind::kGrant ||
              options_.record_trace) {
            state.granted = decision;
          }
        }
        if (changed) break;  // priorities moved: restart the sweep
      }
      if (!changed) break;
    }

    // Dispatch the highest running-priority job that is not blocked.
    // dispatch_order_ still holds the final sweep's order — the same
    // order the running map from that sweep would produce.
    Job* chosen = nullptr;
    for (Job* job : dispatch_order_) {
      if (!job->dispatch().blocked) {
        chosen = job;
        break;
      }
    }
    if (chosen != nullptr) {
      const LockDecision& granted = chosen->dispatch().granted;
      if (granted.kind == LockDecision::Kind::kAbortAndGrant) {
        // Apply the aborts, then re-resolve against the new lock state.
        for (JobId victim_id : granted.jobs) {
          Job* victim = const_cast<Job*>(job(victim_id));
          PCPDA_CHECK_MSG(victim != nullptr && victim->active(),
                          "abort victim not active");
          AbortAndRestart(*victim, RuleNote(granted.rule, "abort"));
        }
        continue;
      }
      if (granted.kind == LockDecision::Kind::kAbortRequester) {
        // Optimistic self-abort: restart the requester, then re-resolve.
        AbortAndRestart(*chosen, RuleNote(granted.rule, "self-abort"));
        continue;
      }
    }
    return chosen;
  }
}

bool Simulator::HandleOneDeadlock() {
  // Only an added edge can close a cycle, so while none was added since
  // the last search came up empty the graph is still acyclic.
  if (wait_graph_.edge_additions() == acyclic_at_) return false;
  auto cycle = wait_graph_.FindCycle();
  if (!cycle.has_value()) {
    acyclic_at_ = wait_graph_.edge_additions();
    return false;
  }
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
      event.note = ToString(job.dispatch().granted.rule);
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
  m.max_effective_blocking =
      std::max(m.max_effective_blocking, job.dispatch().effective_blocking);
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
  SpecMetrics& m = metrics_for(job.spec_id());
  m.max_effective_blocking =
      std::max(m.max_effective_blocking, job.dispatch().effective_blocking);
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
  dispatch_order_.erase(
      std::find(dispatch_order_.begin(), dispatch_order_.end(), &job));
  wait_graph_.ClearWaits(job.id());
  retired_this_tick_.push_back(&job);
  RefreshNextDeadline();
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
  if (!active_jobs_.empty() && (dispatch_dirty_ || runner == nullptr)) {
    return;
  }
  Tick end = std::min(next_arrival_, options_.horizon);
  if (active_jobs_.empty()) {
    runner = nullptr;
  } else {
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
  // A busy stretch repeats the tick just run; an idle gap may follow a
  // tick whose runner committed.
  RecordTick(runner, runner_kind, span, /*repeats_last=*/runner != nullptr);
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
                           Tick ticks, bool repeats_last) {
  if (runner == nullptr) metrics_.idle_ticks += ticks;
  // Blocking/preemption accounting, in id order (the kBlock events'
  // order). Every active job's verdict is from the last resolution: any
  // arrival or retirement since then dirtied the memo.
  for (Job* job : active_jobs_) {
    DispatchState& state = job->dispatch();
    SpecMetrics& m = metrics_for(job->spec_id());
    if (!state.blocked) {
      state.blocked_last_tick = false;
      if (job != runner) m.preempted_ticks += ticks;
      continue;
    }
    m.blocked_ticks += ticks;
    if (runner != nullptr &&
        runner->base_priority() < job->base_priority()) {
      m.effective_blocking_ticks += ticks;
      state.effective_blocking += ticks;
    }
    const bool new_episode = !state.blocked_last_tick;
    if (new_episode ||
        (state.last_tick_rule != state.rule &&
         std::string_view(ToString(state.last_tick_rule)) !=
             ToString(state.rule))) {
      // New blocking episode, or the printed denial changed mid-episode
      // (e.g. a ceiling block turning into a wr-guard conflict). The
      // T*-guard and the ceiling denial print alike, so a switch between
      // them continues the episode, as the text notes did.
      if (new_episode) {
        if (state.reason == BlockReason::kCeiling) {
          ++m.ceiling_blocks;
        } else {
          ++m.conflict_blocks;
        }
      }
      if (options_.record_trace) {
        TraceEvent event;
        event.tick = tick_;
        event.kind = TraceKind::kBlock;
        event.job = job->id();
        event.spec = job->spec_id();
        event.instance = job->instance();
        event.item = state.item;
        event.mode = state.mode;
        event.reason = state.reason;
        event.others = state.blockers;
        event.note = ToString(state.rule);
        trace_.AddEvent(event);
      }
    }
    state.blocked_last_tick = true;
    state.last_tick_rule = state.rule;
  }

  // The ceiling is a function of the lock table: sample it again only
  // after a grant or release.
  const bool locks_moved = ceiling_version_ != lock_table_.version();
  if (locks_moved) {
    ceiling_ = protocol_->CurrentCeiling();
    ceiling_version_ = lock_table_.version();
  }
  const Priority ceiling = ceiling_;
  metrics_.max_ceiling = Max(metrics_.max_ceiling, ceiling);

  if (!options_.record_trace) return;
  if (repeats_last && !locks_moved) {
    trace_.ExtendLastSpan(ticks);
    return;
  }
  TickRecord record;
  record.ceiling = ceiling;
  if (runner != nullptr) {
    record.running_job = runner->id();
    record.running_spec = runner->spec_id();
    record.running_kind = runner_kind;
  }
  for (const Job* job : active_jobs_) {
    const DispatchState& state = job->dispatch();
    if (!state.blocked) continue;
    BlockedSample sample;
    sample.job = job->id();
    sample.spec = job->spec_id();
    sample.item = state.item;
    sample.mode = state.mode;
    sample.reason = state.reason;
    sample.blockers = state.blockers;
    record.blocked.push_back(std::move(sample));
  }
  trace_.AddTicks(tick_, ticks, std::move(record));
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
    for (const Job* job : active_jobs_) {
      if (job->dispatch().blocked) {
        audit_blocked_.push_back({job->id(), &job->dispatch().blockers});
      }
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
  next_arrival_ = NextArrivalTick();
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
    if (!retired_this_tick_.empty()) FreeRetiredJobs();
    // A fault plan may move or add arrivals on any tick.
    if (next_arrival_ <= tick_ || fault_plan_ != nullptr) ReleaseArrivals();
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
      // The resolution (blocked verdicts, wait edges, runner) stays valid
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
    RecordTick(runner, runner_kind, 1, /*repeats_last=*/!resolved);
    AuditNow(resolved);
    ++tick_;
    if (may_fast_forward &&
        (auditor_ == nullptr || auditor_->last_audit_clean())) {
      FastForward(runner, runner_kind, &scheduled_ticks);
    }
  }

  for (const Job* pending : active_jobs_) {
    SpecMetrics& m = metrics_for(pending->spec_id());
    // Jobs still in flight whose deadline lies beyond the horizon never
    // got the chance to miss (or meet) it; MissRatio excludes them.
    if (!pending->deadline_miss_recorded()) ++m.pending_at_horizon;
    // Fold the leftover per-job blocking tallies into the maxima.
    m.max_effective_blocking = std::max(
        m.max_effective_blocking, pending->dispatch().effective_blocking);
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
