#ifndef PCPDA_SUPERVISOR_SUPERVISOR_H_
#define PCPDA_SUPERVISOR_SUPERVISOR_H_

#include <csignal>
#include <cstdint>
#include <chrono>
#include <deque>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "campaign/spec.h"
#include "common/status.h"
#include "supervisor/chaos.h"

namespace pcpda {

/// How a multi-process campaign is supervised. Everything here is
/// execution policy: nothing in it can change a job's result, so a
/// supervised run merges byte-identically to an in-process one
/// (tests/supervisor_test.cc pins that equality).
struct SupervisorOptions {
  /// Campaign output directory (checkpoints, MANIFEST, BENCH,
  /// SUPERVISOR.json, quarantine/).
  std::string out_dir;
  /// The worker: its executable (pcpda_campaign itself, re-exec'd; the
  /// CLI resolves /proc/self/exe, tests point it at the built binary)
  /// followed by the campaign flags exactly as the user gave them. Each
  /// worker runs it with the per-task flags appended (--worker, --out,
  /// --shard, --heartbeat-fd and the job range), so the command must
  /// hold none of those. The worker re-derives the spec from these flags;
  /// the checkpoint fingerprint refuses any skew from `spec`.
  std::vector<std::string> worker_command;
  /// Concurrent worker processes. Only one worker ever owns a shard
  /// checkpoint at a time (two appenders on one file would interleave
  /// destructively), so values above the live task count idle.
  int max_workers = 2;

  // --- hang detection and escalation -----------------------------------
  /// No heartbeat from a worker for this long → SIGTERM (cooperative
  /// stop). Workers heartbeat once per durable record (after the group
  /// fsync that covers it) plus once at startup, so this must
  /// comfortably exceed the slowest single job plus one fsync.
  int stall_timeout_ms = 10'000;
  /// SIGTERM unanswered for this long → SIGKILL. Covers workers wedged
  /// in native code (or SIGSTOPped), which cooperative stop cannot reach.
  int term_grace_ms = 2'000;
  /// Whole-task wall-clock deadline (spawn to exit); 0 = off. The
  /// backstop for a worker that keeps heartbeating but never finishes.
  int shard_deadline_ms = 0;

  // --- retry, backoff, bisection ---------------------------------------
  /// Attempts per task (initial + retries) before its pending jobs are
  /// abandoned as a degraded-but-accounted result.
  int max_task_attempts = 8;
  /// Consecutive involuntary worker deaths *without checkpoint progress*
  /// before the task's pending range is bisected to isolate a poison job.
  int bisect_after = 2;
  /// Exponential backoff base for retries; the delay for attempt k is
  /// min(base << (k-1), cap) plus deterministic seeded jitter in
  /// [0, base).
  int backoff_base_ms = 100;
  int backoff_cap_ms = 5'000;

  // --- chaos self-test --------------------------------------------------
  /// Seed of the injection schedule; 0 disables chaos.
  std::uint64_t chaos_seed = 0;
  /// SIGKILL / SIGSTOP injections against live workers (see chaos.h).
  int chaos_kills = 0;
  int chaos_stops = 0;

  // --- graceful stop ----------------------------------------------------
  /// The CLI's sigaction flag (volatile sig_atomic_t, set by the
  /// SIGINT/SIGTERM handler). When it becomes nonzero the supervisor
  /// SIGTERMs every worker, stops spawning, and merges what is recorded.
  const volatile std::sig_atomic_t* signal_flag = nullptr;
  /// Read end of the CLI's self-pipe: makes poll() wake immediately on a
  /// signal instead of at the next tick. -1 = poll timeout only.
  int signal_rfd = -1;
};

/// Process-level accounting of one supervised run. Written to
/// SUPERVISOR.json (separate from MANIFEST.json, which stays
/// byte-comparable across disturbed/undisturbed runs — attempt counts
/// are nondeterministic by nature).
struct SupervisorStats {
  std::int64_t workers_spawned = 0;
  std::int64_t clean_exits = 0;
  /// Worker exited with a nonzero code (spec/IO error or stop-pending).
  std::int64_t error_exits = 0;
  /// Deterministic crash signals: SIGSEGV, SIGABRT, SIGBUS, SIGILL,
  /// SIGFPE.
  std::int64_t crash_deaths = 0;
  /// SIGKILL deaths not sent by us: the OOM killer's signature (chaos
  /// kills are counted separately below).
  std::int64_t kill_deaths = 0;
  std::int64_t other_signal_deaths = 0;
  /// SIGTERM escalations by the stall/deadline detector.
  std::int64_t hang_escalations = 0;
  std::int64_t retries = 0;
  std::int64_t bisections = 0;
  std::int64_t poison_jobs = 0;
  /// Tasks whose pending jobs were given up after max_task_attempts.
  std::int64_t abandoned_tasks = 0;
  std::int64_t chaos_kills_injected = 0;
  std::int64_t chaos_stops_injected = 0;
  std::int64_t heartbeats = 0;
};

/// The process-isolated campaign scheduler: forks pcpda_campaign
/// --worker per shard, monitors heartbeat pipes and per-shard deadlines,
/// reaps via SIGCHLD (self-pipe, no zombies), classifies deaths by exit
/// code vs signal, retries with capped exponential backoff and seeded
/// jitter, and — when a range keeps killing its worker without
/// checkpoint progress — bisects the pending job range until the single
/// poison job is isolated, records it as outcome "crash", and
/// quarantines it so the rest of the campaign completes. DESIGN.md §14.
///
/// One Supervisor at a time per process (it owns the process's SIGCHLD
/// disposition while Run() executes).
class Supervisor {
 public:
  Supervisor(CampaignSpec spec, SupervisorOptions options);

  /// Runs the campaign to completion (or degraded completion), then
  /// merges. Non-OK only for setup/IO errors; worker failures are
  /// policy, reflected in the report and stats.
  StatusOr<CampaignReport> Run();

  const SupervisorStats& stats() const { return stats_; }

 private:
  using Clock = std::chrono::steady_clock;

  /// One schedulable unit: the pending jobs of `shard` with global ids
  /// in [lo, hi) (-1 bounds = the whole shard). Bisection splits tasks;
  /// nothing else creates them after startup.
  struct Task {
    int shard = 0;
    std::int64_t lo = -1;
    std::int64_t hi = -1;
    Clock::time_point eligible_at{};
    int attempts = 0;
    /// Consecutive involuntary deaths with zero new records.
    int deaths_without_progress = 0;
  };

  /// A live worker process.
  struct Worker {
    Task task;
    ::pid_t pid = -1;
    int hb_fd = -1;
    /// Pending jobs of the range when it spawned: the records it owes,
    /// and the progress baseline its death is judged against.
    std::int64_t to_record = 0;
    /// Records it has written so far, and the checkpoint bytes counted
    /// (chaos runs only; see ScanProgress).
    std::int64_t written = 0;
    std::int64_t ckpt_bytes = 0;
    Clock::time_point started{};
    Clock::time_point last_beat{};
    bool term_sent = false;
    Clock::time_point term_at{};
    /// This worker was chaos-injected: its death is scheduled noise, not
    /// evidence — no retry/bisection counters move.
    bool chaos = false;
  };

  Status SpawnEligible();
  Status Spawn(const Task& task);
  void ReapAll();
  void HandleDeath(Worker worker, int wait_status);
  void CheckStalls();
  void DrainHeartbeats(std::size_t worker_index);
  /// Counts the records `worker` appended to its shard checkpoint since
  /// the last scan into `written` and the chaos clock.
  void ScanProgress(Worker& worker);
  /// Fires the chaos events the clock has reached, one per live worker
  /// that chaos has not hit and that has records left to write.
  void InjectDueChaos();
  /// Sends the due event, if any, to `victim` when it is such a worker.
  /// Returns false when no event is due.
  bool InjectDueChaos(Worker& victim);
  void RequestStop();
  /// Pending (unrecorded) jobs of a task's range, in id order.
  StatusOr<std::vector<CampaignJob>> PendingJobs(const Task& task) const;
  std::vector<std::string> WorkerArgs(const Task& task, int hb_fd) const;
  int BackoffMs(const Task& task) const;
  bool ShardBusy(int shard) const;
  std::string RenderStats() const;

  const CampaignSpec spec_;
  const SupervisorOptions options_;
  Campaign campaign_;  // merge / poison-record access to the checkpoints
  ChaosSchedule chaos_;
  /// Checkpoint records written under this supervisor; plus
  /// stats_.workers_spawned, the chaos clock.
  std::int64_t records_written_ = 0;
  std::deque<Task> queue_;
  std::vector<Worker> live_;
  SupervisorStats stats_;
  bool stopping_ = false;
  bool fatal_ = false;
  Status fatal_status_;
};

}  // namespace pcpda

#endif  // PCPDA_SUPERVISOR_SUPERVISOR_H_
