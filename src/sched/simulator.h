#ifndef PCPDA_SCHED_SIMULATOR_H_
#define PCPDA_SCHED_SIMULATOR_H_

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "db/ceilings.h"
#include "db/database.h"
#include "db/lock_table.h"
#include "fault/fault_plan.h"
#include "history/history.h"
#include "plan/compiled_plan.h"
#include "plan/job_arena.h"
#include "protocols/protocol.h"
#include "sched/auditor.h"
#include "sched/metrics.h"
#include "sched/wait_graph.h"
#include "sim/arrival_schedule.h"
#include "sim/calendar.h"
#include "trace/trace.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {

/// What to do when a job misses its deadline.
enum class DeadlineMissPolicy : std::uint8_t {
  /// Record the miss and let the job finish (default; keeps the paper's
  /// figures intact, e.g. Figure 3 where T1 runs past its deadline).
  kContinue,
  /// Record the miss and drop the job (release its locks, undo in-place
  /// writes).
  kDrop,
  /// Record the miss and halt the run.
  kHalt,
};

/// What to do when the wait-for graph contains a cycle.
enum class DeadlockPolicy : std::uint8_t {
  /// Record the deadlock and halt (ceiling protocols must never reach
  /// this; 2PL-PI can).
  kHalt,
  /// Abort (restart) the lowest-base-priority member of the cycle and
  /// continue.
  kAbortLowestPriority,
};

struct SimulatorOptions {
  /// Simulate ticks [0, horizon). Required > 0.
  Tick horizon = 0;
  DeadlineMissPolicy miss_policy = DeadlineMissPolicy::kContinue;
  DeadlockPolicy deadlock_policy = DeadlockPolicy::kHalt;
  /// Record the per-tick schedule and events (needed by Gantt/figures).
  bool record_trace = true;
  /// Record the operation history (needed by the serializability checker).
  bool record_history = true;
  /// Release schedule override (sporadic/Poisson/trace arrivals). When
  /// null, releases follow the specs' periodic calendar — the paper's
  /// model. Must outlive the simulator.
  const ArrivalSchedule* arrival_schedule = nullptr;
  /// Fault plan: injected aborts, overruns and arrival jitter. Empty
  /// (default) injects nothing. Validated at Run(); a bad config yields a
  /// non-OK SimResult.status.
  FaultConfig faults;
  /// Audit every tick with the invariant auditor; violations land in
  /// SimResult.audit and make SimResult.status non-OK.
  bool audit = false;
  /// When non-zero, bound the recorded trace to (roughly) the most recent
  /// `max_trace_events` discrete events and the same number of tick
  /// records, so long horizons don't hold every event ever traced in
  /// memory. 0 (default) keeps everything. Dropped counts are reported by
  /// Trace::dropped_events()/dropped_ticks().
  std::size_t max_trace_events = 0;
  /// Cooperative cancellation: checked once per iteration of the run
  /// loop. An iteration runs one tick and may then fast-forward the rest
  /// of the runner's current step or an idle gap, so two checks are at
  /// most one step (or one idle gap) apart. When the pointed-at flag
  /// becomes true (a wall-clock watchdog, a SIGINT handler), the run stops
  /// at the next check and returns kDeadlineExceeded — the partial metrics
  /// are not trustworthy. Null (default) never cancels; must outlive
  /// Run().
  const std::atomic<bool>* cancel = nullptr;
  /// Deterministic watchdog: abandon the run with kDeadlineExceeded after
  /// this many scheduled ticks, independent of the horizon. Every tick on
  /// which a job runs counts, whether the loop ran it or fast-forwarded
  /// it; fast-forwarded idle gaps do not. 0 (default) is unlimited.
  /// Unlike `cancel`, the outcome (and the tick it names) depends only on
  /// the inputs, so campaigns that rely on byte-identical resume use this
  /// budget as the primary hang guard.
  Tick max_sim_ticks = 0;
};

/// Outcome of one run.
struct SimResult {
  /// Non-OK for configuration errors (InvalidArgument) and for invariant
  /// audit failures (Internal).
  Status status;
  RunMetrics metrics;
  Trace trace;
  History history;
  /// Populated when options.audit is set.
  AuditReport audit;
  bool deadlock_detected = false;
};

/// The single-processor, memory-resident-database, priority-driven
/// transaction scheduler of the paper, parameterized by a concurrency
/// control protocol. Discrete time; each tick the highest running-priority
/// job that can make progress executes (Section 5).
///
/// The inner loop is event-driven: arrivals come from a calendar cursor
/// (O(log specs) per release instead of an O(specs) scan per tick), jobs
/// leave the scan set the moment they commit or are dropped and return to
/// a job pool on the next tick, once the end-of-tick audit has seen their
/// final state (the next release re-initialises one in place), and
/// stretches where nothing can change — idle gaps up to the
/// next arrival, and the inside of the runner's admitted step — are
/// fast-forwarded while still being credited tick by tick, with traces,
/// metrics and statuses bit-identical to the per-tick engine (pinned by
/// tests/determinism_test.cc and tests/simulator_test.cc). Engine memory
/// therefore tracks the jobs in flight, not the horizon.
///
/// The auditor, when attached, re-derives its invariants only on ticks
/// that change state: those that resolved dispatch or leave the dispatch
/// memo dirty. Every other tick, walked or leapt, repeats the previous
/// verdict, violations included, so the report is the one an every-tick
/// audit would give. Leaps stop while that verdict is failing.
class Simulator : public SimView {
 public:
  /// Runs `plan`'s scenario, reusing its precomputed ceilings and arrival
  /// cursor. The simulator keeps a copy of the plan (cheap: shared
  /// state), so `plan` itself need not outlive it; `protocol` must.
  /// `plan` must be compiled (ok()).
  Simulator(const CompiledPlan& plan, Protocol* protocol,
            SimulatorOptions options);
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Runs the full simulation and returns the result. Call once.
  SimResult Run();

  // --- SimView ------------------------------------------------------------
  const TransactionSet& set() const override { return *set_; }
  const StaticCeilings& ceilings() const override { return *ceilings_; }
  const LockTable& locks() const override { return lock_table_; }
  const Database& database() const override { return database_; }
  const Job* job(JobId id) const override;
  Tick now() const override { return tick_; }
  std::span<const Job* const> active_jobs() const override {
    return active_jobs_;
  }

 private:
  /// Fills due_ with the arrivals due at tick_ from the schedule override
  /// or the calendar cursor (both yield (tick, spec) order).
  void TakeDueArrivals();
  /// Tick of the next not-yet-released arrival, or kNoTick if none left.
  Tick NextArrivalTick() const;
  /// Jumps tick_ over ticks on which the per-tick loop could only repeat
  /// the tick it just ran, crediting them in bulk and emitting the same
  /// TickRecords. With no job in flight that is the idle gap up to the
  /// next arrival. Otherwise it needs a clean dispatch memo and a runner
  /// with r > 1 ticks left in its admitted step, and leaps to the earliest
  /// of r - 1 ticks on, the next arrival, the next unrecorded deadline,
  /// and the end of the max_sim_ticks budget; leapt busy ticks are added
  /// to `*scheduled_ticks`. Both stop at the horizon. Never called under a
  /// fault plan (which may inject arrivals or consume per-tick
  /// randomness). Under the auditor it is called only while the last
  /// verdict is clean, and credits the leapt ticks with that verdict:
  /// they change no state the audit reads.
  void FastForward(Job* runner, StepKind runner_kind,
                   Tick* scheduled_ticks);
  /// Earliest absolute deadline among active jobs whose miss is not yet
  /// recorded, or kNoTick. Cached: RefreshNextDeadline recomputes it
  /// where the answer can move (release, retirement, a recorded miss).
  Tick NextDeadline() const { return next_deadline_; }
  void RefreshNextDeadline();
  void ReleaseArrivals();
  void CheckDeadlines();
  /// Applies this tick's job faults (aborts, spurious restarts, WCET
  /// overruns) before dispatch resolution.
  void ApplyFaults();
  /// Audits the end-of-tick state: from scratch when dispatch was
  /// `resolved` this tick or the memo is dirty again, otherwise by
  /// repeating the last verdict (nothing the audit reads has moved).
  void AuditNow(bool resolved);
  /// Resolves this tick's dispatch: rebuilds blocking edges to a fixpoint
  /// and picks the runner. Returns the chosen job (nullptr if idle) and
  /// leaves each active job's blocked verdict in its DispatchState.
  Job* ResolveDispatch();
  /// Handles at most one wait-for cycle per policy. Returns true when a
  /// cycle was found (the caller must re-resolve dispatch unless the run
  /// halted). Searches only when an edge was added since the last search
  /// that found none.
  bool HandleOneDeadlock();
  /// Grants the pending lock for `job`'s current step, recording effects.
  void AdmitStep(Job& job);
  /// Runs one tick of `job`, handling step completion and commit.
  void ExecuteTick(Job& job);
  void CompleteStep(Job& job, const Step& step);
  void Commit(Job& job);
  /// Aborts a job (2PL-HP victim or deadlock victim): undoes in-place
  /// writes, releases locks, restarts from the first step.
  void AbortAndRestart(Job& victim, const char* why);
  void DropJob(Job& job);
  /// Moves a just-committed/dropped job out of the active scan set and
  /// the dispatch order and clears its waits; it stays in jobs_ (and in
  /// retired_this_tick_ for this tick's audit) until FreeRetiredJobs
  /// runs at the top of the next tick.
  void RetireJob(Job& job);
  /// Returns the jobs retired during the previous tick to the pool; from
  /// then on job(id) answers nullptr for them.
  void FreeRetiredJobs();
  /// Credits `ticks` consecutive ticks that all ran `runner` (nullptr:
  /// idle) against the current blocked set, and traces their TickRecord;
  /// block episodes are judged once, at the first of them. `repeats_last`
  /// says the runner, its step kind and the blocked set are those of the
  /// last recorded tick (dispatch reused its resolution); with the lock
  /// table unchanged too, the ticks extend the trace's last span without
  /// building a record.
  void RecordTick(const Job* runner, StepKind runner_kind, Tick ticks,
                  bool repeats_last);
  SpecMetrics& metrics_for(SpecId spec);

  /// True when the job's current step requires a lock it does not hold.
  bool NeedsLock(const Job& job) const;
  LockMode NeededMode(const Job& job) const;

  /// Holds the compiled artifact (set, ceilings, cursor) alive.
  CompiledPlan plan_;
  const TransactionSet* set_;
  Protocol* protocol_;
  SimulatorOptions options_;

  /// Points into plan_.
  const StaticCeilings* ceilings_;
  Database database_;
  LockTable lock_table_;
  WaitGraph wait_graph_;
  Trace trace_;
  History history_;
  RunMetrics metrics_;

  Tick tick_ = 0;
  std::int64_t seq_ = 0;
  bool halted_ = false;
  /// Owning map of the live jobs: every job in flight plus the jobs that
  /// retired during the current tick. Retired jobs go back to the pool at
  /// the top of the next tick, so its ring capacity follows the live-id
  /// span. Metrics, trace and history record ids, never Job pointers.
  JobSlotMap<std::unique_ptr<Job>> jobs_;
  /// The job pool: retired jobs waiting to be re-initialised in place by
  /// the next release. Its size peaks at the most jobs ever retired in
  /// one tick, and under ASan its jobs are poisoned, so a stray read of a
  /// retired job is still reported.
  std::vector<std::unique_ptr<Job>> free_jobs_;
  /// Id of the next released job; also the count of jobs released.
  JobId next_job_id_ = 0;
  /// The per-tick scan set: jobs still in flight, in id (= release)
  /// order. Maintained by ReleaseArrivals and RetireJob.
  std::vector<Job*> active_jobs_;
  /// Jobs that retired during the current tick; the end-of-tick audit
  /// still sees their final state.
  std::vector<const Job*> retired_this_tick_;
  /// Event source when no arrival-schedule override is set.
  std::optional<ArrivalCalendar::Cursor> calendar_cursor_;
  /// This tick's arrivals, refilled in place by TakeDueArrivals.
  std::vector<Arrival> due_;
  /// Read position into options_.arrival_schedule->arrivals().
  std::size_t schedule_pos_ = 0;
  /// The decision Protocol::Decide fills, reused across requests.
  LockDecision decision_scratch_;
  /// The active jobs in dispatch order as of the last sweep. It follows
  /// active_jobs_ (ReleaseArrivals appends, RetireJob erases) and each
  /// sweep re-sorts it in place; the order is a strict total one, so the
  /// result does not depend on where the sort starts.
  std::vector<Job*> dispatch_order_;
  /// Per-sweep scratch reused across dispatch resolutions: the running-
  /// priority fixpoint and the sorted holder set of a kBlock decision.
  JobSlotMap<Priority> running_scratch_;
  std::vector<JobId> holders_scratch_;
  /// CheckDeadlines' snapshot of the scan set.
  std::vector<Job*> deadline_scratch_;
  /// NextDeadline's cached answer.
  Tick next_deadline_ = kNoTick;
  /// NextArrivalTick() as of the last release: the next tick that
  /// releases a job (kNoTick when none is left).
  Tick next_arrival_ = kNoTick;
  /// wait_graph_.edge_additions() at the last deadlock search that found
  /// no cycle: until an edge is added, none can form.
  std::uint64_t acyclic_at_ = 0;
  std::unique_ptr<FaultPlan> fault_plan_;
  std::unique_ptr<InvariantAuditor> auditor_;
  /// The audit's view of a tick, rebuilt in place on each full audit.
  std::vector<const Job*> audit_jobs_;
  std::vector<AuditBlocked> audit_blocked_;
  bool ran_ = false;

  /// Cross-tick dispatch memo. Every input of ResolveDispatch — the
  /// active set, step cursors/admission flags, dynamic read sets, lock
  /// table, wait graph and protocol state — only changes at the marked
  /// mutation points (arrival, admission of a lock step, step
  /// completion, commit/drop/abort, fault application). Decide is pure
  /// by contract, so while dispatch_dirty_ stays false the previous
  /// tick's resolution (last_runner_, the jobs' blocked verdicts, wait
  /// edges) is reused verbatim; a job executing a k-tick step resolves
  /// O(1) times instead of k. Byte-identical by construction, pinned by
  /// tests/determinism_test.cc. The audit gates on the same flag: what it
  /// reads beyond these inputs (database, undo logs, running priorities,
  /// blocked set) moves only at the same points or during resolution.
  bool dispatch_dirty_ = true;
  Job* last_runner_ = nullptr;
  /// Whether the last sweep left inherited running priorities behind.
  /// While false, every active job runs at its base priority.
  bool priorities_inherited_ = false;
  /// Protocol::CurrentCeiling as of lock-table version ceiling_version_
  /// (none before the first sample).
  Priority ceiling_;
  std::optional<std::uint64_t> ceiling_version_;
};

}  // namespace pcpda

#endif  // PCPDA_SCHED_SIMULATOR_H_
