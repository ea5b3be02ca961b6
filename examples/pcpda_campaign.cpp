// Crash-safe experiment-campaign CLI: sweep utilization x protocol over
// seeded random workloads with per-shard checkpoints, per-job watchdogs,
// retry/quarantine, and graceful SIGINT/SIGTERM shutdown. Re-invoking
// with the same flags resumes from the last durable record and produces
// a BENCH_campaign.json byte-identical to an uninterrupted run.
//
// Three modes share one binary:
//   (default)    run the grid in-process, then merge
//   --supervise  fork one worker process per shard (src/supervisor/):
//                checkpoint-progress stall detection, SIGTERM->SIGKILL
//                escalation, crash classification, backoff retry,
//                poison-job bisection, optional chaos self-test
//   --worker     be such a worker: run one shard (or a bisected job
//                range of it) and skip the merge (the supervisor owns
//                MANIFEST/BENCH)
//
//   ./build/examples/pcpda_campaign --out=campaign --scenarios=100
//   ./build/examples/pcpda_campaign --out=campaign --shards=4 --shard=1
//   ./build/examples/pcpda_campaign --out=campaign --shards=4 --supervise
//
// Exit codes (shared by every CLI in examples/): 0 campaign complete and
// every job ok, 1 completed with failed/quarantined jobs or interrupted
// with work pending, 2 usage, spec or IO error.

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "campaign/campaign.h"
#include "common/parse.h"
#include "runner/executor_pool.h"
#include "supervisor/supervisor.h"

using namespace pcpda;

namespace {

// Signal state, async-signal-safe throughout (DESIGN.md §14):
//  - g_signal_flag is the one type the standard guarantees a handler may
//    write (volatile sig_atomic_t); the supervisor polls it.
//  - g_stop is read by the campaign engine's worker threads; a lock-free
//    atomic store is async-signal-safe, and the static_assert makes the
//    "lock-free" half a compile-time fact rather than a hope.
//  - the self-pipe byte wakes the supervisor's poll() immediately
//    instead of at the next tick.
volatile std::sig_atomic_t g_signal_flag = 0;
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler stores to g_stop; it must be lock-free to "
              "be async-signal-safe");
int g_signal_pipe_wfd = -1;

void OnSignal(int) {
  const int saved_errno = errno;
  g_signal_flag = 1;
  g_stop.store(true, std::memory_order_relaxed);
  if (g_signal_pipe_wfd >= 0) {
    const char byte = 's';
    [[maybe_unused]] ssize_t n = ::write(g_signal_pipe_wfd, &byte, 1);
  }
  errno = saved_errno;
}

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: slow syscalls in the campaign engine resume; the
  // supervisor does not depend on EINTR because the self-pipe byte makes
  // its poll() readable.
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --out=DIR [flags]\n"
      "  --out=DIR           checkpoint/result directory (required)\n"
      "  --seed=N            campaign base seed (default 1)\n"
      "  --scenarios=K       scenarios per utilization point (default "
      "100)\n"
      "  --utils=A,B,...     utilization sweep (default 0.1..0.9)\n"
      "  --protocols=P,Q,... protocols to compare (default all 8)\n"
      "  --dist=NAME         uunifast|randfixedsum|exponential|bimodal\n"
      "  --txns=N            transactions per scenario (default 8)\n"
      "  --items=N           data items per scenario (default 20)\n"
      "  --min-period=T --max-period=T\n"
      "                      period range, log-uniform (default 50/1000)\n"
      "  --min-ops=N --max-ops=N\n"
      "                      data ops per transaction (default 2/5)\n"
      "  --write-fraction=F  probability an op writes (default 0.3)\n"
      "  --task-util-min=F --task-util-max=F --exp-mean=F\n"
      "  --bimodal-split=F --bimodal-light=F\n"
      "                      distribution shape parameters\n"
      "  --horizon=H         simulation horizon per job (default 3000)\n"
      "  --shards=S          checkpoint shards (default 1)\n"
      "  --shard=I           run only shard I of S (default: all)\n"
      "  --jobs=N            concurrent executors (default: hardware "
      "concurrency)\n"
      "  --max-sim-ticks=T   deterministic per-attempt tick budget\n"
      "                      (default 4x horizon)\n"
      "  --wall-budget-ms=W  wall-clock per-attempt budget (default off)\n"
      "  --retries=R         extra attempts after a captured exception "
      "(default 1)\n"
      "  --no-fsync          no checkpoint fsyncs (machine-crash safety off)\n"
      "  --no-lint-preflight skip the per-scenario lint gate\n"
      "supervision (process isolation, DESIGN.md §14):\n"
      "  --supervise         fork one worker process per shard\n"
      "  --workers=N         concurrent worker processes (default 2)\n"
      "  --stall-ms=T        no new checkpoint record for T ms -> SIGTERM\n"
      "                      (default 10000)\n"
      "  --term-grace-ms=T   SIGTERM unanswered for T ms -> SIGKILL "
      "(default 2000)\n"
      "  --shard-deadline-ms=T\n"
      "                      per-task wall deadline (default off)\n"
      "  --task-attempts=N   attempts per task before abandoning "
      "(default 8)\n"
      "  --bisect-after=N    no-progress deaths before bisection "
      "(default 2)\n"
      "  --backoff-ms=T --backoff-cap-ms=T\n"
      "                      retry backoff base/cap (default 100/5000)\n"
      "  --chaos-seed=N --chaos-kills=K --chaos-stops=S\n"
      "                      chaos self-test: seeded SIGKILL/SIGSTOP\n"
      "                      injections against live workers\n"
      "  --worker            internal: run as a supervised worker\n"
      "  --job-first=J --job-last=J\n"
      "                      internal: bisected job-id range [first, "
      "last)\n"
      "fault injection (robustness tests):\n"
      "  --inject-crash=J    job J throws every attempt (in-process)\n"
      "  --inject-hang=J     job J hangs until cancelled (in-process)\n"
      "  --inject-crash-job=J\n"
      "                      job J SIGSEGVs the whole process (poison "
      "job)\n"
      "  --inject-spin-job=J job J spins, immune to cooperative cancel\n"
      "  --inject-lint-defect-cell=C\n"
      "                      cell C's scenario gets a lint defect\n"
      "  --stop-after=N      deterministic stand-in for SIGINT after N\n"
      "                      completions\n",
      argv0);
}

/// The worker binary to re-exec for --supervise: this very image.
/// /proc/self/exe survives $PATH games and relative-cwd invocations;
/// argv[0] is the fallback off Linux.
std::string SelfExecutable(const char* argv0) {
  char buffer[4096];
  const ssize_t n =
      ::readlink("/proc/self/exe", buffer, sizeof(buffer) - 1);
  if (n > 0) {
    buffer[n] = '\0';
    return std::string(buffer);
  }
  return std::string(argv0);
}

void PrintReport(const CampaignReport& report) {
  for (const ShardSummary& shard : report.shards) {
    std::printf(
        "shard %d: %lld jobs, %lld resumed, %lld ran%s\n", shard.shard,
        static_cast<long long>(shard.jobs),
        static_cast<long long>(shard.resumed),
        static_cast<long long>(shard.ran),
        shard.torn_bytes > 0
            ? " (torn checkpoint tail discarded)"
            : "");
  }
  std::printf(
      "campaign: %lld jobs, %lld ok, %lld failed, %lld quarantined, "
      "%lld pending%s\n",
      static_cast<long long>(report.total_jobs),
      static_cast<long long>(report.ok),
      static_cast<long long>(report.failed),
      static_cast<long long>(report.quarantined),
      static_cast<long long>(report.pending),
      report.stopped ? " (stopped)" : "");
  std::printf("manifest: %s\n", report.manifest_path.c_str());
  if (report.merged) {
    std::printf("merged: %s\n", report.bench_path.c_str());
  } else {
    std::printf("not merged: %lld job(s) pending; re-invoke to resume\n",
                static_cast<long long>(report.pending));
  }
}

int ReportExitCode(const CampaignReport& report) {
  const bool clean = report.merged && report.failed == 0 &&
                     report.quarantined == 0;
  return clean ? 0 : 1;
}

/// Flags the supervisor appends to each worker's command, or that would
/// stop a worker on every attempt: a supervised run takes none of them.
bool ClashesWithSupervise(const std::string& flag) {
  for (const char* name :
       {"--shard", "--job-first", "--job-last", "--stop-after"}) {
    if (flag.rfind(std::string(name) + "=", 0) == 0) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.protocols = AllProtocolKinds();
  CampaignOptions options;
  options.jobs = ExecutorPool::DefaultThreads();
  options.stop = &g_stop;
  SupervisorOptions supervise_options;
  supervise_options.worker_command = {SelfExecutable(argv[0])};
  bool supervise = false;
  bool worker = false;
  bool clashes = false;
  const struct {
    const char* name;
    int min, max;
    int* field;
  } supervisor_flags[] = {
      {"--workers", 1, 1 << 10, &supervise_options.max_workers},
      {"--stall-ms", 0, 1 << 30, &supervise_options.stall_timeout_ms},
      {"--term-grace-ms", 0, 1 << 30, &supervise_options.term_grace_ms},
      {"--shard-deadline-ms", 0, 1 << 30,
       &supervise_options.shard_deadline_ms},
      {"--task-attempts", 1, 1 << 20, &supervise_options.max_task_attempts},
      {"--bisect-after", 1, 1 << 20, &supervise_options.bisect_after},
      {"--backoff-ms", 1, 1 << 30, &supervise_options.backoff_base_ms},
      {"--backoff-cap-ms", 1, 1 << 30, &supervise_options.backoff_cap_ms},
      {"--chaos-kills", 0, 1 << 20, &supervise_options.chaos_kills},
      {"--chaos-stops", 0, 1 << 20, &supervise_options.chaos_stops},
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = nullptr;
    bool ok = true;
    bool handled = true;
    if (arg == "--supervise") {
      supervise = true;
    } else if (arg == "--worker") {
      worker = true;
    } else if (ParseFlag(argv[i], "--chaos-seed", &value)) {
      ok = ParseFlagUInt64("--chaos-seed", value,
                           std::numeric_limits<std::uint64_t>::max(),
                           &supervise_options.chaos_seed);
    } else {
      handled = false;
    }
    for (const auto& row : supervisor_flags) {
      if (!handled && ParseFlag(argv[i], row.name, &value)) {
        ok = ParseFlagInt(row.name, value, row.min, row.max, row.field);
        handled = true;
      }
    }
    if (!handled) {
      // Everything else is a campaign flag, and a supervised worker gets
      // it as given (minus --out, which the supervisor appends per task).
      const Status status = ApplyCampaignFlag(arg, &spec, &options);
      if (status.code() == StatusCode::kInvalidArgument) {
        std::fprintf(stderr, "%s\n", status.message().c_str());
      }
      ok = status.ok();
      clashes = clashes || ClashesWithSupervise(arg);
      if (ok && arg.rfind("--out=", 0) != 0) {
        supervise_options.worker_command.push_back(arg);
      }
    }
    if (!ok) {
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.out_dir.empty()) {
    Usage(argv[0]);
    return 2;
  }
  if (supervise && worker) {
    std::fprintf(stderr,
                 "--supervise and --worker are mutually exclusive\n");
    return 2;
  }
  if (supervise && clashes) {
    std::fprintf(stderr,
                 "--supervise runs every shard and job range itself; "
                 "--shard, --job-first, --job-last and --stop-after are "
                 "for single runs and workers\n");
    return 2;
  }
  if (worker && options.only_shard < 0) {
    std::fprintf(stderr, "--worker requires --shard\n");
    return 2;
  }

  InstallSignalHandlers();

  if (worker) {
    options.worker = true;
    Campaign campaign(spec, options);
    const auto report = campaign.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "worker: %s\n",
                   report.status().ToString().c_str());
      return 2;
    }
    std::int64_t pending = 0;
    for (const ShardSummary& shard : report->shards) {
      pending += shard.jobs - shard.resumed - shard.ran;
    }
    return pending == 0 ? 0 : 1;
  }

  if (supervise) {
    // Self-pipe: lets the supervisor's poll() wake on SIGINT/SIGTERM
    // without trusting EINTR (SA_RESTART is set).
    int signal_pipe[2] = {-1, -1};
    if (::pipe(signal_pipe) == 0) {
      for (int fd : {signal_pipe[0], signal_pipe[1]}) {
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        ::fcntl(fd, F_SETFL, O_NONBLOCK);
      }
      g_signal_pipe_wfd = signal_pipe[1];
    }
    supervise_options.out_dir = options.out_dir;
    supervise_options.signal_flag = &g_signal_flag;
    supervise_options.signal_rfd = signal_pipe[0];

    Supervisor supervisor(spec, supervise_options);
    const auto report = supervisor.Run();
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      return 2;
    }
    const SupervisorStats& stats = supervisor.stats();
    std::printf(
        "supervisor: %lld workers (%lld clean, %lld error, %lld crash, "
        "%lld killed), %lld escalations, %lld retries, %lld bisections, "
        "%lld poison, %lld abandoned, %lld chaos injections\n",
        static_cast<long long>(stats.workers_spawned),
        static_cast<long long>(stats.clean_exits),
        static_cast<long long>(stats.error_exits),
        static_cast<long long>(stats.crash_deaths),
        static_cast<long long>(stats.kill_deaths +
                               stats.other_signal_deaths),
        static_cast<long long>(stats.hang_escalations),
        static_cast<long long>(stats.retries),
        static_cast<long long>(stats.bisections),
        static_cast<long long>(stats.poison_jobs),
        static_cast<long long>(stats.abandoned_tasks),
        static_cast<long long>(stats.chaos_kills_injected +
                               stats.chaos_stops_injected));
    PrintReport(*report);
    return ReportExitCode(*report);
  }

  Campaign campaign(spec, options);
  const auto report = campaign.Run();
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 2;
  }
  PrintReport(*report);
  return ReportExitCode(*report);
}
