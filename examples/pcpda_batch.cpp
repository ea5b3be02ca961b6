// Batch scenario runner: execute every .scn file in a directory across
// all 8 protocols on the work-stealing executor pool and emit an
// aggregate CSV report (one row per scenario x protocol).
//
//   ./build/examples/pcpda_batch --dir=scenarios
//   ./build/examples/pcpda_batch --dir=scenarios --jobs=8 --csv=report.csv
//
// Rows come out in (scenario, protocol) submission order whatever --jobs
// is: the batch runner collects results in submission order, so the
// report is byte-identical for every worker count.
//
// Exit codes (shared by every CLI in examples/): 0 all runs ok, 1 any
// load/run failure, 2 usage or IO error.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/parse.h"
#include "common/strings.h"
#include "lint/lint.h"
#include "plan/compiled_plan.h"
#include "runner/batch_runner.h"
#include "workload/scenario.h"

using namespace pcpda;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --dir=DIR [flags]\n"
      "  --dir=DIR      directory of .scn scenario files (required)\n"
      "  --jobs=N       concurrent executors (default: hardware "
      "concurrency)\n"
      "  --horizon=H    horizon override for scenarios that declare none\n"
      "                 (default: twice the hyperperiod)\n"
      "  --csv=FILE     write the report to FILE instead of stdout\n"
      "  --no-lint      skip the static pre-flight (lint errors "
      "normally\n"
      "                 drop the scenario from the batch)\n",
      argv0);
}

Tick FallbackHorizon(const Scenario& scenario, Tick override_horizon) {
  if (scenario.horizon > 0) return scenario.horizon;
  if (override_horizon > 0) return override_horizon;
  const Tick hyper = scenario.set.Hyperperiod();
  return hyper > 0 && hyper < kNoTick / 2 ? 2 * hyper : 0;
}

std::string CsvRow(const std::string& name, ProtocolKind kind,
                   const SimResult& result) {
  const RunMetrics& m = result.metrics;
  Tick blocking = 0;
  std::int64_t dropped = 0;
  for (const SpecMetrics& spec : m.per_spec) {
    blocking += spec.effective_blocking_ticks;
    dropped += spec.dropped;
  }
  return StrFormat(
      "%s,%s,%s,%lld,%lld,%lld,%lld,%lld,%.6f,%lld,%lld,%lld,%d\n",
      name.c_str(), ToString(kind),
      result.status.ok() ? "ok" : "error",
      static_cast<long long>(m.horizon),
      static_cast<long long>(m.TotalReleased()),
      static_cast<long long>(m.TotalCommitted()),
      static_cast<long long>(dropped),
      static_cast<long long>(m.TotalMisses()), m.MissRatio(),
      static_cast<long long>(blocking),
      static_cast<long long>(m.TotalRestarts()),
      static_cast<long long>(m.deadlocks), result.audit.ok() ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string dir;
  std::string csv_path;
  int jobs = ExecutorPool::DefaultThreads();
  Tick horizon_override = 0;
  bool lint = true;
  for (int i = 1; i < argc; ++i) {
    const char* value = nullptr;
    if (ParseFlag(argv[i], "--dir", &value)) {
      dir = value;
    } else if (ParseFlag(argv[i], "--jobs", &value)) {
      if (!ParseFlagInt("--jobs", value, 1, 1 << 20, &jobs)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--horizon", &value)) {
      if (!ParseFlagInt64("--horizon", value, 0,
                          std::numeric_limits<Tick>::max(),
                          &horizon_override)) {
        Usage(argv[0]);
        return 2;
      }
    } else if (ParseFlag(argv[i], "--csv", &value)) {
      csv_path = value;
    } else if (std::strcmp(argv[i], "--no-lint") == 0) {
      lint = false;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (dir.empty()) {
    Usage(argv[0]);
    return 2;
  }

  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".scn") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    std::fprintf(stderr, "cannot read %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 2;
  }
  if (paths.empty()) {
    std::fprintf(stderr, "no .scn files in %s\n", dir.c_str());
    return 2;
  }
  std::sort(paths.begin(), paths.end());

  bool failed = false;
  std::vector<Scenario> scenarios;
  scenarios.reserve(paths.size());
  for (const std::string& path : paths) {
    auto scenario = LoadScenarioFile(path);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   scenario.status().ToString().c_str());
      failed = true;
      continue;
    }
    if (lint) {
      const LintReport report =
          LintScenario(*scenario, LintFilterOptions());
      if (!report.clean()) {
        // A statically invalid scenario would poison the aggregate
        // report; skip it and let the exit code flag the batch.
        std::fprintf(stderr, "%s", report.Render(path).c_str());
        std::fprintf(stderr,
                     "%s: skipped (lint errors; --no-lint overrides)\n",
                     path.c_str());
        failed = true;
        continue;
      }
    }
    scenarios.push_back(std::move(scenario).value());
  }

  // Compile each scenario once (lint has already run above when it was
  // requested); the 8 protocol runs share the lowered plan.
  std::vector<CompiledPlan> plans;
  plans.reserve(scenarios.size());
  for (const Scenario& scenario : scenarios) {
    plans.push_back(CompiledPlan::Compile(scenario, {.lint = false}).value());
  }

  const std::vector<ProtocolKind> kinds = AllProtocolKinds();
  std::vector<RunSpec> specs;
  specs.reserve(scenarios.size() * kinds.size());
  for (std::size_t s = 0; s < scenarios.size(); ++s) {
    const Scenario& scenario = scenarios[s];
    for (ProtocolKind kind : kinds) {
      RunSpec spec;
      spec.scenario = &scenario;
      spec.plan = &plans[s];
      spec.protocol = kind;
      spec.options.horizon = FallbackHorizon(scenario, horizon_override);
      spec.options.audit = true;
      spec.options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
      specs.push_back(std::move(spec));
    }
  }

  BatchRunner runner(BatchOptions{jobs});
  const std::vector<SimResult> results = runner.Run(specs);

  std::string report =
      "scenario,protocol,status,horizon,released,committed,dropped,"
      "misses,miss_ratio,blocking_ticks,restarts,deadlocks,audit_ok\n";
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Scenario& scenario = *specs[i].scenario;
    report += CsvRow(scenario.name, specs[i].protocol, results[i]);
    if (!results[i].status.ok()) {
      std::fprintf(stderr, "%s under %s: %s\n", scenario.name.c_str(),
                   ToString(specs[i].protocol),
                   results[i].status.ToString().c_str());
      failed = true;
    }
  }

  if (csv_path.empty()) {
    std::fputs(report.c_str(), stdout);
  } else {
    std::ofstream out(csv_path, std::ios::binary);
    if (!out.good()) {
      std::fprintf(stderr, "cannot write %s\n", csv_path.c_str());
      return 2;
    }
    out << report;
    std::printf("%zu runs (%zu scenarios x %zu protocols, jobs=%d) -> %s\n",
                specs.size(), scenarios.size(), kinds.size(),
                runner.jobs(), csv_path.c_str());
  }
  return failed ? 1 : 0;
}
