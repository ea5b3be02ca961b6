#include "supervisor/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/inotify.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "campaign/checkpoint.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pcpda {
namespace {

/// SIGCHLD self-pipe. The handler only writes one byte; everything else
/// (waitpid, bookkeeping) happens in the poll loop. Static because
/// sigaction handlers cannot carry state; Run() is documented as
/// one-at-a-time per process.
int g_sigchld_wfd = -1;

void SigchldHandler(int) {
  const int saved = errno;
  if (g_sigchld_wfd >= 0) {
    const char byte = 'c';
    [[maybe_unused]] ssize_t n = ::write(g_sigchld_wfd, &byte, 1);
  }
  errno = saved;
}

Status ErrnoStatus(const char* what) {
  return Status::Internal(StrFormat("%s: %s", what, std::strerror(errno)));
}

/// Signals whose delivery means the worker itself is defective (as
/// opposed to killed from outside): these are what a poison job looks
/// like from the parent.
bool IsCrashSignal(int sig) {
  return sig == SIGSEGV || sig == SIGABRT || sig == SIGBUS ||
         sig == SIGILL || sig == SIGFPE;
}

/// Empties a nonblocking pipe or inotify fd whose bytes only woke poll().
void Drain(int fd) {
  char sink[4096];
  while (::read(fd, sink, sizeof(sink)) > 0) {
  }
}

int MillisUntil(std::chrono::steady_clock::time_point now,
                std::chrono::steady_clock::time_point then) {
  if (then <= now) return 0;
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
      then - now);
  return static_cast<int>(std::min<std::int64_t>(ms.count() + 1, 60'000));
}

}  // namespace

Supervisor::Supervisor(CampaignSpec spec, SupervisorOptions options)
    : spec_(std::move(spec)),
      options_(std::move(options)),
      campaign_(spec_, CampaignOptions{.out_dir = options_.out_dir}),
      chaos_(ChaosSchedule::Make(options_.chaos_seed, options_.chaos_kills,
                                 options_.chaos_stops)) {}

bool Supervisor::ShardBusy(int shard) const {
  return std::any_of(live_.begin(), live_.end(), [shard](const Worker& w) {
    return w.task.shard == shard;
  });
}

StatusOr<std::vector<CampaignJob>> Supervisor::PendingJobs(
    const Task& task) const {
  auto loaded = LoadCheckpoint(
      Campaign::ShardPath(options_.out_dir, task.shard),
      spec_.Fingerprint());
  if (!loaded.ok()) return loaded.status();
  return loaded->Unrecorded(spec_.JobsForRange(task.shard, task.lo, task.hi));
}

std::vector<std::string> Supervisor::WorkerArgs(const Task& task) const {
  std::vector<std::string> args = options_.worker_command;
  args.push_back("--worker");
  args.push_back("--out=" + options_.out_dir);
  args.push_back(StrFormat("--shard=%d", task.shard));
  args.push_back(
      StrFormat("--job-first=%lld", static_cast<long long>(task.lo)));
  args.push_back(
      StrFormat("--job-last=%lld", static_cast<long long>(task.hi)));
  return args;
}

int Supervisor::BackoffMs(const Task& task) const {
  const int attempt = std::max(task.attempts, 1);
  const int shift = std::min(attempt - 1, 20);
  const std::int64_t base = std::max(options_.backoff_base_ms, 1);
  std::int64_t delay =
      std::min<std::int64_t>(base << shift,
                             std::max(options_.backoff_cap_ms, 1));
  // Deterministic jitter: seeded by (spec, shard, attempt), so reruns
  // back off identically — debuggability beats decorrelation here.
  const std::uint64_t jitter_stream =
      SplitMixSeed(spec_.base_seed ^ 0x5c4eab150eULL,
                   static_cast<std::uint64_t>(task.shard) * 1024u +
                       static_cast<std::uint64_t>(attempt));
  delay += static_cast<std::int64_t>(jitter_stream %
                                     static_cast<std::uint64_t>(base));
  return static_cast<int>(std::min<std::int64_t>(delay, 60'000));
}

Status Supervisor::Spawn(const Task& task) {
  auto pending = PendingJobs(task);
  if (!pending.ok()) return pending.status();
  if (pending->empty()) return Status::Ok();  // finished by a prior worker
  // The checkpoint's size before the worker can touch it: ScanProgress
  // counts the records written past it.
  std::int64_t ckpt_bytes = 0;
  struct stat st;
  if (::stat(Campaign::ShardPath(options_.out_dir, task.shard).c_str(),
             &st) == 0) {
    ckpt_bytes = st.st_size;
  }

  std::vector<std::string> args = WorkerArgs(task);
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const ::pid_t pid = ::fork();
  if (pid < 0) return ErrnoStatus("fork");
  if (pid == 0) {
    // Child: async-signal-safe calls only between fork and exec.
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  Worker worker;
  worker.task = task;
  worker.pid = pid;
  worker.to_record = static_cast<std::int64_t>(pending->size());
  worker.ckpt_bytes = ckpt_bytes;
  worker.started = Clock::now();
  worker.progressed = worker.started;
  live_.push_back(worker);
  ++stats_.workers_spawned;
  // The new worker is the one victim sure to have records left, however
  // fast the others run: an event already due lands on it now.
  if (chaos_.active()) InjectDueChaos(live_.back());
  return Status::Ok();
}

Status Supervisor::SpawnEligible() {
  const auto now = Clock::now();
  bool progress = true;
  while (progress && !stopping_ && !fatal_ &&
         static_cast<int>(live_.size()) < options_.max_workers) {
    progress = false;
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if (it->eligible_at > now) continue;
      if (ShardBusy(it->shard)) continue;
      Task task = *it;
      queue_.erase(it);
      PCPDA_RETURN_IF_ERROR(Spawn(task));
      progress = true;
      break;
    }
  }
  return Status::Ok();
}

void Supervisor::ScanProgress(Worker& worker) {
  const std::string path =
      Campaign::ShardPath(options_.out_dir, worker.task.shard);
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return;  // not created yet
  struct stat st;
  if (::fstat(fd, &st) == 0) {
    const std::int64_t size = st.st_size;
    // Open() cut a torn tail: count from the new end.
    worker.ckpt_bytes = std::min(worker.ckpt_bytes, size);
    char buffer[4096];
    while (worker.ckpt_bytes < size) {
      const ssize_t n = ::pread(
          fd, buffer,
          static_cast<std::size_t>(std::min<std::int64_t>(
              sizeof(buffer), size - worker.ckpt_bytes)),
          static_cast<off_t>(worker.ckpt_bytes));
      if (n <= 0) break;
      std::int64_t lines = std::count(buffer, buffer + n, '\n');
      // A fresh file starts with its header line, which is no record.
      if (worker.ckpt_bytes == 0 && lines > 0) --lines;
      worker.ckpt_bytes += n;
      worker.written += lines;
      stats_.records_seen += lines;
      if (lines > 0) worker.progressed = Clock::now();
    }
  }
  ::close(fd);
}

void Supervisor::InjectDueChaos() {
  // The schedule's clock is campaign progress: checkpoint records
  // written, seen as the shard files grow (so it ticks per record, not
  // per group fsync), plus workers spawned. A due event goes to a live
  // worker that chaos has not hit yet and that has records left to
  // write, so every injection lands on a process with work left (a
  // second signal to a dead or frozen victim, or one to a worker with
  // nothing left to lose, would count an injection that does nothing). With no such worker the
  // event waits for one to spawn, and Spawn offers it the new worker
  // before that worker can write a record.
  for (Worker& victim : live_) {
    if (!InjectDueChaos(victim)) return;
  }
}

bool Supervisor::InjectDueChaos(Worker& victim) {
  if (victim.chaos || victim.written >= victim.to_record) return true;
  const ChaosEvent* event = chaos_.Due(static_cast<std::uint64_t>(
      stats_.records_seen + stats_.workers_spawned));
  if (event == nullptr) return false;
  if (event->kill) {
    ::kill(victim.pid, SIGKILL);
    ++stats_.chaos_kills_injected;
  } else {
    ::kill(victim.pid, SIGSTOP);
    ++stats_.chaos_stops_injected;
  }
  victim.chaos = true;
  return true;
}

void Supervisor::CheckStalls() {
  const auto now = Clock::now();
  for (Worker& worker : live_) {
    if (worker.term_sent) {
      if (now - worker.term_at >=
          std::chrono::milliseconds(options_.term_grace_ms)) {
        ::kill(worker.pid, SIGKILL);
      }
      continue;
    }
    const bool stalled =
        options_.stall_timeout_ms > 0 &&
        now - worker.progressed >=
            std::chrono::milliseconds(options_.stall_timeout_ms);
    const bool over_deadline =
        options_.shard_deadline_ms > 0 &&
        now - worker.started >=
            std::chrono::milliseconds(options_.shard_deadline_ms);
    if (!stalled && !over_deadline) continue;
    // Escalation step 1: SIGTERM asks the worker to stop gracefully
    // (it checkpoints per record, so nothing durable is at risk). A
    // worker wedged in native code — or SIGSTOPped — ignores this and
    // meets step 2 after term_grace_ms.
    ::kill(worker.pid, SIGTERM);
    worker.term_sent = true;
    worker.term_at = now;
    ++stats_.hang_escalations;
  }
}

void Supervisor::RequestStop() {
  if (stopping_) return;
  stopping_ = true;
  for (const Worker& worker : live_) {
    ::kill(worker.pid, SIGTERM);
  }
}

void Supervisor::HandleDeath(Worker worker, int wait_status) {
  Task task = worker.task;

  const bool exited = WIFEXITED(wait_status);
  const int exit_code = exited ? WEXITSTATUS(wait_status) : -1;
  const int sig = WIFSIGNALED(wait_status) ? WTERMSIG(wait_status) : 0;

  auto pending = PendingJobs(task);
  if (!pending.ok()) {
    fatal_ = true;
    fatal_status_ = pending.status();
    return;
  }

  std::string death;
  if (exited) {
    death = StrFormat("exit %d", exit_code);
  } else {
    death = StrFormat("killed by signal %d (%s)%s", sig,
                      ::strsignal(sig),
                      worker.term_sent ? " after escalation" : "");
  }

  // Classify for the stats; the retry decision below only cares about
  // voluntary vs involuntary and chaos vs genuine.
  if (exited && exit_code == 0) {
    ++stats_.clean_exits;
  } else if (exited) {
    ++stats_.error_exits;
  } else if (IsCrashSignal(sig)) {
    ++stats_.crash_deaths;
  } else if (sig == SIGKILL && !worker.chaos && !worker.term_sent) {
    ++stats_.kill_deaths;  // not ours, not chaos: the OOM killer's MO
  } else if (!worker.chaos && !worker.term_sent) {
    ++stats_.other_signal_deaths;
  }

  if (pending->empty()) return;  // task complete, however the worker died

  if (stopping_) return;  // graceful stop: leave the remainder pending

  if (worker.chaos) {
    // Scheduled noise. The task goes straight back; chaos must never
    // consume attempts or trip bisection, or the self-test could abandon
    // work and break the byte-identity bar it exists to prove.
    task.eligible_at = Clock::now();
    queue_.push_back(task);
    return;
  }

  // Progress = the checkpoint gained records during this worker's life.
  // (A worker we SIGTERMed for stalling may still exit voluntarily with
  // pending jobs — that is an answer to OUR signal, but the stall itself
  // is evidence, so every death that reaches this point is judged.)
  const bool made_progress =
      static_cast<std::int64_t>(pending->size()) < worker.to_record;

  // Only process-killing deaths feed the bisection counter: a death by
  // signal, or a SIGKILL after our own escalation. A voluntary nonzero
  // exit (bad flags, exec failure's 127, an IO error) is the worker
  // *telling* us something is wrong — deterministic maybe, but not a
  // poison job, so it takes the retry/abandon path only.
  const bool killing_death = !exited || worker.term_sent;
  if (made_progress) {
    task.deaths_without_progress = 0;
  } else if (killing_death) {
    ++task.deaths_without_progress;
  }
  ++task.attempts;

  // Bisection: repeated deaths with zero checkpoint progress mean some
  // job in the pending range deterministically kills its process.
  // Splitting the range lets the healthy half complete while the hunt
  // continues in the other; at a singleton, the culprit is proven.
  if (task.deaths_without_progress >= options_.bisect_after) {
    if (pending->size() == 1) {
      JobRecord record;
      record.job_id = pending->front().id;
      record.outcome = "crash";
      record.attempts = task.attempts;
      record.code = "Internal";
      record.message =
          StrFormat("worker process died on this job %d times in a row "
                    "without recording it (last: %s); isolated by range "
                    "bisection and quarantined",
                    task.deaths_without_progress, death.c_str());
      const Status recorded = campaign_.RecordPoisonJob(record);
      if (!recorded.ok()) {
        fatal_ = true;
        fatal_status_ = recorded;
        return;
      }
      ++stats_.poison_jobs;
      return;
    }
    const std::int64_t mid = (*pending)[pending->size() / 2].id;
    queue_.push_back(Task{task.shard, task.lo, mid, Clock::now()});
    queue_.push_back(Task{task.shard, mid, task.hi, Clock::now()});
    ++stats_.bisections;
    return;
  }

  if (task.attempts >= options_.max_task_attempts) {
    // Give up on the range; its jobs stay pending and the final merge
    // reports a partial campaign rather than looping forever.
    ++stats_.abandoned_tasks;
    return;
  }

  ++stats_.retries;
  task.eligible_at =
      Clock::now() + std::chrono::milliseconds(BackoffMs(task));
  queue_.push_back(task);
}

void Supervisor::ReapAll() {
  for (;;) {
    int wait_status = 0;
    const ::pid_t pid = ::waitpid(-1, &wait_status, WNOHANG);
    if (pid <= 0) break;
    auto it = std::find_if(live_.begin(), live_.end(),
                           [pid](const Worker& w) { return w.pid == pid; });
    if (it == live_.end()) continue;  // not ours (defensive)
    // The file is final now: count the records written since the last
    // scan so records_seen and the chaos clock miss none.
    ScanProgress(*it);
    Worker worker = *it;
    live_.erase(it);
    HandleDeath(std::move(worker), wait_status);
  }
}

StatusOr<CampaignReport> Supervisor::Run() {
  if (options_.out_dir.empty()) {
    return Status::InvalidArgument("supervisor requires an out_dir");
  }
  if (options_.worker_command.empty()) {
    return Status::InvalidArgument("supervisor requires a worker command");
  }
  if (options_.max_workers < 1) {
    return Status::InvalidArgument("max_workers must be >= 1");
  }
  PCPDA_RETURN_IF_ERROR(spec_.Validate());
  PCPDA_RETURN_IF_ERROR(MakeDirectories(options_.out_dir));

  // Every write to a shard checkpoint wakes the loop, which then counts
  // the new records (ScanProgress): the stall detector's and the chaos
  // clock's one progress signal.
  const int progress_fd = ::inotify_init1(IN_NONBLOCK | IN_CLOEXEC);
  if (progress_fd < 0) return ErrnoStatus("inotify_init1");
  if (::inotify_add_watch(progress_fd, options_.out_dir.c_str(),
                          IN_MODIFY) < 0) {
    const Status status = ErrnoStatus("inotify_add_watch");
    ::close(progress_fd);
    return status;
  }

  // SIGCHLD self-pipe + handler. SA_NOCLDSTOP: chaos SIGSTOPs must not
  // look like deaths; only termination should wake the reaper.
  int sigchld_pipe[2];
  if (::pipe(sigchld_pipe) != 0) {
    const Status status = ErrnoStatus("pipe");
    ::close(progress_fd);
    return status;
  }
  for (int fd : {sigchld_pipe[0], sigchld_pipe[1]}) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, O_NONBLOCK);
  }
  g_sigchld_wfd = sigchld_pipe[1];
  struct sigaction sigchld_action;
  std::memset(&sigchld_action, 0, sizeof(sigchld_action));
  sigchld_action.sa_handler = SigchldHandler;
  sigemptyset(&sigchld_action.sa_mask);
  sigchld_action.sa_flags = SA_RESTART | SA_NOCLDSTOP;
  struct sigaction old_sigchld;
  ::sigaction(SIGCHLD, &sigchld_action, &old_sigchld);

  for (int shard = 0; shard < spec_.shards; ++shard) {
    queue_.push_back(Task{shard, -1, -1, Clock::now()});
  }

  Status loop_status = Status::Ok();
  while (!fatal_) {
    if (options_.signal_flag != nullptr && *options_.signal_flag != 0) {
      RequestStop();
    }
    loop_status = SpawnEligible();
    if (!loop_status.ok()) break;
    if (live_.empty()) {
      if (stopping_ || queue_.empty()) break;
      // Everything queued is backing off or shard-blocked; sleep until
      // the earliest becomes eligible.
      auto next = queue_.front().eligible_at;
      for (const Task& task : queue_) {
        next = std::min(next, task.eligible_at);
      }
      const int wait_ms =
          std::max(MillisUntil(Clock::now(), next), 1);
      ::poll(nullptr, 0, std::min(wait_ms, 100));
      continue;
    }

    // poll() skips a negative fd, so a missing signal pipe needs no case.
    struct pollfd fds[] = {{sigchld_pipe[0], POLLIN, 0},
                           {progress_fd, POLLIN, 0},
                           {options_.signal_rfd, POLLIN, 0}};
    const int ready = ::poll(fds, 3, 50);
    if (ready < 0 && errno != EINTR) {
      loop_status = ErrnoStatus("poll");
      break;
    }
    if (ready > 0) {
      if (fds[0].revents & POLLIN) Drain(sigchld_pipe[0]);
      // The events only wake the loop; ScanProgress reads the files.
      if (fds[1].revents & POLLIN) Drain(progress_fd);
      if (fds[2].revents & POLLIN) {
        Drain(options_.signal_rfd);
        RequestStop();
      }
    }
    ReapAll();
    for (Worker& worker : live_) ScanProgress(worker);
    if (chaos_.active()) InjectDueChaos();
    CheckStalls();
  }

  // Drain any stragglers so no worker outlives (or is zombied by) the
  // supervisor, even on the error paths above.
  for (const Worker& worker : live_) ::kill(worker.pid, SIGKILL);
  for (const Worker& worker : live_) ::waitpid(worker.pid, nullptr, 0);
  live_.clear();
  ::sigaction(SIGCHLD, &old_sigchld, nullptr);
  g_sigchld_wfd = -1;
  ::close(sigchld_pipe[0]);
  ::close(sigchld_pipe[1]);
  ::close(progress_fd);

  if (fatal_) return fatal_status_;
  PCPDA_RETURN_IF_ERROR(loop_status);

  auto report = campaign_.Merge(stopping_);
  if (!report.ok()) return report.status();

  PCPDA_RETURN_IF_ERROR(WriteFileAtomic(
      options_.out_dir + "/SUPERVISOR.json", RenderStats()));
  return report;
}

std::string Supervisor::RenderStats() const {
  const SupervisorStats& s = stats_;
  const std::pair<const char*, std::int64_t> fields[] = {
      {"workers_spawned", s.workers_spawned},
      {"clean_exits", s.clean_exits},
      {"error_exits", s.error_exits},
      {"crash_deaths", s.crash_deaths},
      {"kill_deaths", s.kill_deaths},
      {"other_signal_deaths", s.other_signal_deaths},
      {"hang_escalations", s.hang_escalations},
      {"retries", s.retries},
      {"bisections", s.bisections},
      {"poison_jobs", s.poison_jobs},
      {"abandoned_tasks", s.abandoned_tasks},
      {"chaos_kills_injected", s.chaos_kills_injected},
      {"chaos_stops_injected", s.chaos_stops_injected},
      {"records_seen", s.records_seen}};
  std::vector<std::string> rows;
  for (const auto& [name, value] : fields) {
    rows.push_back(
        StrFormat("  \"%s\": %lld", name, static_cast<long long>(value)));
  }
  return "{\n" + Join(rows, ",\n") + "\n}\n";
}

}  // namespace pcpda
