// Crash-safe experiment-campaign CLI: sweep utilization x protocol over
// seeded random workloads with per-shard checkpoints, per-job watchdogs,
// retry/quarantine, and graceful SIGINT/SIGTERM shutdown. Re-invoking
// with the same flags resumes from the last durable record and produces
// a BENCH_campaign.json byte-identical to an uninterrupted run. A job
// that kills the process is quarantined by the second re-invocation
// that finds it unfinished; --supervise does those re-invocations
// itself, restarting the campaign in a forked child until it exits.
//
//   ./build/examples/pcpda_campaign --out=campaign --scenarios=100
//   ./build/examples/pcpda_campaign --out=campaign --shards=4 --shard=1
//   ./build/examples/pcpda_campaign --out=campaign --supervise
//
// Exit codes (shared by every CLI in examples/): 0 campaign complete and
// every job ok, 1 completed with failed/quarantined jobs or interrupted
// with work pending, 2 usage, spec or IO error (and, under --supervise,
// a campaign process killed without checkpoint progress).

#include <errno.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "campaign/campaign.h"
#include "runner/executor_pool.h"

using namespace pcpda;

namespace {

// Signal state, async-signal-safe throughout (DESIGN.md §14):
//  - g_stop is read by the campaign engine's worker threads; a lock-free
//    atomic store is async-signal-safe, and the static_assert makes the
//    "lock-free" half a compile-time fact rather than a hope.
//  - g_child is the --supervise child the handler forwards the signal
//    to; 0 when there is none, and always 0 in the child itself.
std::atomic<bool> g_stop{false};
static_assert(std::atomic<bool>::is_always_lock_free,
              "signal handler stores to g_stop; it must be lock-free to "
              "be async-signal-safe");
volatile std::sig_atomic_t g_child = 0;

void OnSignal(int sig) {
  const int saved_errno = errno;
  g_stop.store(true, std::memory_order_relaxed);
  const ::pid_t child = g_child;
  if (child > 0) ::kill(child, sig);
  errno = saved_errno;
}

void InstallSignalHandlers() {
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_handler = OnSignal;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: slow syscalls in the campaign engine (and the
  // supervising parent's waitpid) resume.
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
      "  --wall-budget-ms=W  wall-clock per-attempt budget (default off);\n"
      "                      a job that ignores its cancel for W more ms\n"
      "                      kills the process\n"
      "  --retries=R         extra attempts after a captured exception "
      "(default 1)\n"
      "  --no-fsync          no checkpoint fsyncs (machine-crash safety off)\n"
      "  --no-lint-preflight skip the per-scenario lint gate\n"
      "  --supervise         run the campaign in a child process, and run\n"
      "                      it again while a job kills it (DESIGN.md §14)\n"
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

/// Total bytes of the spec's shard checkpoints under `out_dir`.
std::int64_t CheckpointBytes(const CampaignSpec& spec,
                             const std::string& out_dir) {
  std::int64_t total = 0;
  for (int shard = 0; shard < spec.shards; ++shard) {
    struct stat st;
    if (::stat(Campaign::ShardPath(out_dir, shard).c_str(), &st) == 0) {
      total += st.st_size;
    }
  }
  return total;
}

/// --supervise: forks the campaign run and waits for it. A child killed
/// by a signal after its checkpoints grew (an intent line at least) is
/// run again, and resume's intent records isolate the job that killed
/// it. Returns the exit code for the parent, or -1 in the child, which
/// goes on to run the campaign.
int Supervise(const CampaignSpec& spec, const std::string& out_dir) {
  for (;;) {
    const std::int64_t before = CheckpointBytes(spec, out_dir);
    const ::pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "supervise: fork: %s\n", std::strerror(errno));
      return 2;
    }
    if (pid == 0) return -1;
    g_child = pid;
    // A signal that arrived before g_child was set was not forwarded.
    if (g_stop.load(std::memory_order_relaxed)) ::kill(pid, SIGTERM);
    int status = 0;
    ::pid_t reaped;
    while ((reaped = ::waitpid(pid, &status, 0)) < 0 && errno == EINTR) {
    }
    g_child = 0;
    if (reaped < 0) {
      std::fprintf(stderr, "supervise: waitpid: %s\n",
                   std::strerror(errno));
      return 2;
    }
    if (WIFEXITED(status)) return WEXITSTATUS(status);
    const int sig = WTERMSIG(status);
    std::fprintf(stderr, "supervise: campaign process killed by signal %d "
                 "(%s)", sig, ::strsignal(sig));
    if (g_stop.load(std::memory_order_relaxed)) {
      std::fprintf(stderr, " while stopping; not restarting\n");
      return 2;
    }
    if (CheckpointBytes(spec, out_dir) <= before) {
      std::fprintf(stderr, " without checkpoint progress; giving up\n");
      return 2;
    }
    std::fprintf(stderr, "; its checkpoints grew, resuming\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  CampaignSpec spec;
  spec.protocols = AllProtocolKinds();
  CampaignOptions options;
  options.jobs = ExecutorPool::DefaultThreads();
  options.stop = &g_stop;
  bool supervise = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--supervise") {
      supervise = true;
      continue;
    }
    const Status status = ApplyCampaignFlag(arg, &spec, &options);
    if (!status.ok()) {
      if (status.code() == StatusCode::kInvalidArgument) {
        std::fprintf(stderr, "%s\n", status.message().c_str());
      }
      Usage(argv[0]);
      return 2;
    }
  }
  if (options.out_dir.empty()) {
    Usage(argv[0]);
    return 2;
  }

  InstallSignalHandlers();
  if (supervise) {
    const int code = Supervise(spec, options.out_dir);
    if (code >= 0) return code;
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
