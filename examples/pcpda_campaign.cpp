// Crash-safe experiment-campaign CLI: sweep utilization x protocol over
// seeded random workloads with per-shard checkpoints, per-job watchdogs,
// retry/quarantine, and graceful SIGINT/SIGTERM shutdown. Re-invoking
// with the same flags resumes from the last durable record and produces
// a BENCH_campaign.json byte-identical to an uninterrupted run.
//
// Three modes share one binary:
//   (default)    run the grid in-process, then merge
//   --supervise  fork one worker process per shard (src/supervisor/):
//                heartbeat monitoring, SIGTERM->SIGKILL escalation,
//                crash classification, backoff retry, poison-job
//                bisection, optional chaos self-test
//   --worker     be such a worker: run one shard (or a bisected job
//                range of it), heartbeat per durable record, skip the
//                merge (the supervisor owns MANIFEST/BENCH)
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
  // A worker whose supervisor died must not be killed by SIGPIPE on its
  // next heartbeat; the write just fails and the campaign runs on.
  struct sigaction ignore;
  std::memset(&ignore, 0, sizeof(ignore));
  ignore.sa_handler = SIG_IGN;
  sigemptyset(&ignore.sa_mask);
  ::sigaction(SIGPIPE, &ignore, nullptr);
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
      "  --stall-ms=T        no heartbeat for T ms -> SIGTERM (default "
      "10000)\n"
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
      "  --heartbeat-fd=N    internal: worker heartbeat pipe fd\n"
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

bool ParseFlag(const char* arg, const char* name, const char** value) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

std::vector<std::string> SplitCommas(const std::string& list) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) {
      parts.push_back(list.substr(start));
      break;
    }
    parts.push_back(list.substr(start, comma - start));
    start = comma + 1;
  }
  return parts;
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

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.protocols = AllProtocolKinds();
  CampaignOptions options;
  options.jobs = ExecutorPool::DefaultThreads();
  options.stop = &g_stop;
  SupervisorOptions supervise_options;
  bool supervise = false;
  bool worker = false;
  int heartbeat_fd = -1;

  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--out", &value)) {
      options.out_dir = value;
    } else if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseFlagUInt64("--seed", value,
                           std::numeric_limits<std::uint64_t>::max(),
                           &spec.base_seed)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--scenarios", &value)) {
      if (!ParseFlagInt("--scenarios", value, 1, 1 << 30,
                        &spec.scenarios)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--utils", &value)) {
      spec.utilizations.clear();
      for (const std::string& part : SplitCommas(value)) {
        double util = 0.0;
        if (!ParseFlagDouble("--utils", part, 0.0,
                             std::numeric_limits<double>::max(), &util)) {
          Usage(argv[0]);
          return 2;
        }
        spec.utilizations.push_back(util);
      }
    } else if (ParseFlag(argv[i], "--protocols", &value)) {
      spec.protocols.clear();
      for (const std::string& part : SplitCommas(value)) {
        const auto kind = ProtocolKindByName(part);
        if (!kind.has_value()) {
          std::fprintf(stderr, "unknown protocol %s\n", part.c_str());
          return 2;
        }
        spec.protocols.push_back(*kind);
      }
    } else if (ParseFlag(argv[i], "--dist", &value)) {
      const auto dist = UtilDistributionByName(value);
      if (!dist.has_value()) {
        std::fprintf(stderr, "unknown distribution %s\n", value);
        return 2;
      }
      spec.workload.distribution = *dist;
    } else if (ParseFlag(argv[i], "--txns", &value)) {
      if (!ParseFlagInt("--txns", value, 1, 1 << 20,
                        &spec.workload.num_transactions)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--items", &value)) {
      if (!ParseFlagInt("--items", value, 1, 1 << 20,
                        &spec.workload.num_items)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--min-period", &value)) {
      if (!ParseFlagTick("--min-period", value, 1,
                         std::numeric_limits<Tick>::max(),
                         &spec.workload.min_period)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--max-period", &value)) {
      if (!ParseFlagTick("--max-period", value, 1,
                         std::numeric_limits<Tick>::max(),
                         &spec.workload.max_period)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--min-ops", &value)) {
      if (!ParseFlagInt("--min-ops", value, 0, 1 << 20,
                        &spec.workload.min_ops)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--max-ops", &value)) {
      if (!ParseFlagInt("--max-ops", value, 0, 1 << 20,
                        &spec.workload.max_ops)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--write-fraction", &value)) {
      if (!ParseFlagDouble("--write-fraction", value, 0.0, 1.0,
                           &spec.workload.write_fraction)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--task-util-min", &value)) {
      if (!ParseFlagDouble("--task-util-min", value, 0.0, 1.0,
                           &spec.workload.min_task_utilization)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--task-util-max", &value)) {
      if (!ParseFlagDouble("--task-util-max", value, 0.0, 1.0,
                           &spec.workload.max_task_utilization)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--exp-mean", &value)) {
      if (!ParseFlagDouble("--exp-mean", value, 0.0, 1.0,
                           &spec.workload.exp_mean_utilization)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--bimodal-split", &value)) {
      if (!ParseFlagDouble("--bimodal-split", value, 0.0, 1.0,
                           &spec.workload.bimodal_split)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--bimodal-light", &value)) {
      if (!ParseFlagDouble("--bimodal-light", value, 0.0, 1.0,
                           &spec.workload.bimodal_light_fraction)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--horizon", &value)) {
      if (!ParseFlagTick("--horizon", value, 1,
                         std::numeric_limits<Tick>::max(),
                         &spec.horizon)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--shards", &value)) {
      if (!ParseFlagInt("--shards", value, 1, 1 << 20, &spec.shards)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--shard", &value)) {
      if (!ParseFlagInt("--shard", value, 0, 1 << 20,
                        &options.only_shard)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--jobs", &value)) {
      if (!ParseFlagInt("--jobs", value, 1, 1 << 20, &options.jobs)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--max-sim-ticks", &value)) {
      if (!ParseFlagTick("--max-sim-ticks", value, 0,
                         std::numeric_limits<Tick>::max(),
                         &spec.max_sim_ticks)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--wall-budget-ms", &value)) {
      if (!ParseFlagInt("--wall-budget-ms", value, 0, 1 << 30,
                        &spec.wall_budget_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--retries", &value)) {
      if (!ParseFlagInt("--retries", value, 0, 1 << 20,
                        &spec.max_retries)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--no-fsync") == 0) {
      options.fsync = false;
    } else if (std::strcmp(argv[i], "--no-lint-preflight") == 0) {
      options.lint_preflight = false;
    } else if (std::strcmp(argv[i], "--supervise") == 0) {
      supervise = true;
    } else if (std::strcmp(argv[i], "--worker") == 0) {
      worker = true;
    } else if (ParseFlag(argv[i], "--workers", &value)) {
      if (!ParseFlagInt("--workers", value, 1, 1 << 10,
                        &supervise_options.max_workers)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--heartbeat-fd", &value)) {
      if (!ParseFlagInt("--heartbeat-fd", value, 3, 1 << 20,
                        &heartbeat_fd)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--job-first", &value)) {
      if (!ParseFlagInt64("--job-first", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.job_first)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--job-last", &value)) {
      if (!ParseFlagInt64("--job-last", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.job_last)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--stall-ms", &value)) {
      if (!ParseFlagInt("--stall-ms", value, 0, 1 << 30,
                        &supervise_options.stall_timeout_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--term-grace-ms", &value)) {
      if (!ParseFlagInt("--term-grace-ms", value, 0, 1 << 30,
                        &supervise_options.term_grace_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--shard-deadline-ms", &value)) {
      if (!ParseFlagInt("--shard-deadline-ms", value, 0, 1 << 30,
                        &supervise_options.shard_deadline_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--task-attempts", &value)) {
      if (!ParseFlagInt("--task-attempts", value, 1, 1 << 20,
                        &supervise_options.max_task_attempts)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--bisect-after", &value)) {
      if (!ParseFlagInt("--bisect-after", value, 1, 1 << 20,
                        &supervise_options.bisect_after)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--backoff-ms", &value)) {
      if (!ParseFlagInt("--backoff-ms", value, 1, 1 << 30,
                        &supervise_options.backoff_base_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--backoff-cap-ms", &value)) {
      if (!ParseFlagInt("--backoff-cap-ms", value, 1, 1 << 30,
                        &supervise_options.backoff_cap_ms)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--chaos-seed", &value)) {
      if (!ParseFlagUInt64("--chaos-seed", value,
                           std::numeric_limits<std::uint64_t>::max(),
                           &supervise_options.chaos_seed)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--chaos-kills", &value)) {
      if (!ParseFlagInt("--chaos-kills", value, 0, 1 << 20,
                        &supervise_options.chaos_kills)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--chaos-stops", &value)) {
      if (!ParseFlagInt("--chaos-stops", value, 0, 1 << 20,
                        &supervise_options.chaos_stops)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--inject-crash", &value)) {
      if (!ParseFlagInt64("--inject-crash", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.inject_crash_job)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--inject-hang", &value)) {
      if (!ParseFlagInt64("--inject-hang", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.inject_hang_job)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--inject-crash-job", &value)) {
      if (!ParseFlagInt64("--inject-crash-job", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.inject_segv_job)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--inject-spin-job", &value)) {
      if (!ParseFlagInt64("--inject-spin-job", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.inject_spin_job)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--inject-lint-defect-cell", &value)) {
      if (!ParseFlagInt64("--inject-lint-defect-cell", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.inject_lint_defect_cell)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--stop-after", &value)) {
      if (!ParseFlagInt64("--stop-after", value, -1,
                          std::numeric_limits<std::int64_t>::max(),
                          &options.stop_after)) {
        Usage(argv[0]);
        return 2;
      }
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.out_dir.empty() || options.jobs < 1) {
    Usage(argv[0]);
    return 2;
  }
  if (supervise && worker) {
    std::fprintf(stderr,
                 "--supervise and --worker are mutually exclusive\n");
    return 2;
  }
  if (supervise && options.only_shard >= 0) {
    std::fprintf(stderr,
                 "--supervise always runs every shard; --shard is for "
                 "manual distribution\n");
    return 2;
  }
  if (worker && options.only_shard < 0) {
    std::fprintf(stderr, "--worker requires --shard\n");
    return 2;
  }

  InstallSignalHandlers();

  if (worker) {
    options.worker = true;
    if (heartbeat_fd >= 0) {
      // Nonblocking: a stalled supervisor (full pipe) must never block a
      // worker mid-record. A dropped heartbeat only risks a spurious
      // stall escalation, which graceful stop + resume absorbs.
      ::fcntl(heartbeat_fd, F_SETFL, O_NONBLOCK);
      const char byte = 'h';
      // Proof of life before the first (possibly slow) compile+simulate.
      [[maybe_unused]] ssize_t n = ::write(heartbeat_fd, &byte, 1);
      options.on_record = [heartbeat_fd] {
        const char beat = 'r';
        [[maybe_unused]] ssize_t m = ::write(heartbeat_fd, &beat, 1);
      };
    }
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
    supervise_options.worker_binary = SelfExecutable(argv[0]);
    supervise_options.worker_jobs = options.jobs;
    supervise_options.fsync = options.fsync;
    supervise_options.lint_preflight = options.lint_preflight;
    supervise_options.inject_crash_job = options.inject_crash_job;
    supervise_options.inject_hang_job = options.inject_hang_job;
    supervise_options.inject_segv_job = options.inject_segv_job;
    supervise_options.inject_spin_job = options.inject_spin_job;
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
