// Differential scenario fuzzer CLI: generate seeded random workloads +
// fault plans, run them through all 8 protocols, and check the oracle
// stack (invariant audit, serializability + replay, metamorphic bounds,
// determinism). Failures are delta-debugged to minimal .scn repros.
//
//   ./build/examples/pcpda_fuzz --seed=1 --iters=200
//   ./build/examples/pcpda_fuzz --seed=7 --iters=50 --corpus=fuzz/corpus
//   ./build/examples/pcpda_fuzz --seed=1 --iters=200 --break=all  # must fail
//   ./build/examples/pcpda_fuzz --replay=out/quarantine --iters=0
//
// Exit codes (shared by every CLI in examples/): 0 no findings,
// 1 findings, 2 usage or IO error.
// Deterministic: the same flags always produce the same findings.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/parse.h"
#include "fuzz/fuzzer.h"

using namespace pcpda;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [flags]\n"
      "  --seed=N          campaign seed (default 1)\n"
      "  --iters=K         scenarios to generate (default 100)\n"
      "  --jobs=N          concurrent executors for each iteration's\n"
      "                    protocol fan-out (default 1; findings are\n"
      "                    identical for every N)\n"
      "  --horizon-cap=H   max per-scenario horizon (default 240)\n"
      "  --fault-prob=P    fraction of scenarios with fault plans "
      "(default 0.5)\n"
      "  --max-findings=M  stop after M findings (default 8)\n"
      "  --shrink-evals=E  delta-debug budget per finding (default 400)\n"
      "  --corpus=DIR      write minimal .scn repros into DIR\n"
      "  --replay=DIR      replay every .scn in DIR through the oracle\n"
      "                    stack before the generated campaign (e.g. a\n"
      "                    campaign quarantine or an earlier corpus)\n"
      "  --break=MODE      oracle-stack self-test, must produce findings:\n"
      "                    tstar, wr, all   disable PCP-DA locking guards\n"
      "                                     (wr alone is empirically\n"
      "                                     benign, see EXPERIMENTS.md E13)\n"
      "                    bound            zero out the analytical B_i so\n"
      "                                     blocking-bound must fire\n"
      "                    rta              optimistic response-time\n"
      "                                     analysis (B_i = 0, no restart\n"
      "                                     costs) so sched-sound must fire\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--seed", &value)) {
      if (!ParseFlagUInt64("--seed", value,
                           std::numeric_limits<std::uint64_t>::max(),
                           &options.seed)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--iters", &value)) {
      if (!ParseFlagInt("--iters", value, 0, 1 << 30,
                        &options.iterations)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--jobs", &value)) {
      if (!ParseFlagInt("--jobs", value, 1, 1 << 20, &options.jobs)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--horizon-cap", &value)) {
      if (!ParseFlagInt64("--horizon-cap", value, 1,
                          std::numeric_limits<Tick>::max(),
                          &options.horizon_cap)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--fault-prob", &value)) {
      if (!ParseFlagDouble("--fault-prob", value, 0.0, 1.0,
                           &options.fault_probability)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--max-findings", &value)) {
      if (!ParseFlagInt("--max-findings", value, 1, 1 << 30,
                        &options.max_findings)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--shrink-evals", &value)) {
      if (!ParseFlagInt("--shrink-evals", value, 0, 1 << 30,
                        &options.shrink.max_evals)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--corpus", &value)) {
      options.corpus_dir = value;
    } else if (ParseFlag(argv[i], "--replay", &value)) {
      options.replay_dir = value;
    } else if (ParseFlag(argv[i], "--break", &value)) {
      if (std::strcmp(value, "tstar") == 0) {
        options.oracles.pcp_da.enable_tstar_guard = false;
      } else if (std::strcmp(value, "wr") == 0) {
        options.oracles.pcp_da.enable_wr_guard = false;
      } else if (std::strcmp(value, "all") == 0) {
        options.oracles.pcp_da.enable_tstar_guard = false;
        options.oracles.pcp_da.enable_wr_guard = false;
      } else if (std::strcmp(value, "bound") == 0) {
        options.oracles.analysis_defect = AnalysisDefect::kZeroBlockingBound;
      } else if (std::strcmp(value, "rta") == 0) {
        options.oracles.analysis_defect = AnalysisDefect::kOptimisticRta;
      } else {
        Usage(argv[0]);
        return 2;
      }
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  // --iters=0 is allowed when replaying: "just re-check the corpus".
  const int min_iters = options.replay_dir.empty() ? 1 : 0;
  if (options.iterations < min_iters || options.jobs < 1 ||
      options.horizon_cap < 1 || options.max_findings < 1) {
    Usage(argv[0]);
    return 2;
  }

  ScenarioFuzzer fuzzer(options);
  const FuzzReport report = fuzzer.Run();
  std::printf("%s\n", report.Summary().c_str());
  for (std::size_t i = 0; i < report.findings.size(); ++i) {
    std::printf("\n--- finding #%zu minimal repro ---\n%s", i,
                report.findings[i].minimal_text.c_str());
  }
  if (!report.io_status.ok()) return 2;
  return report.findings.empty() ? 0 : 1;
}
