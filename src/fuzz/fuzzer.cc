#include "fuzz/fuzzer.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "common/strings.h"
#include "lint/lint.h"
#include "runner/batch_runner.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

/// Each iteration's scenario gets an independent, reproducible stream
/// derived from the campaign seed alone.
std::uint64_t MixSeed(std::uint64_t seed, int iteration) {
  return SplitMixSeed(seed, static_cast<std::uint64_t>(iteration));
}

FaultKind DrawFaultKind(Rng& rng) {
  switch (rng.UniformInt(0, 4)) {
    case 0:
      return FaultKind::kAbort;
    case 1:
      return FaultKind::kRestartInCs;
    case 2:
      return FaultKind::kOverrun;
    case 3:
      return FaultKind::kDelayArrival;
    default:
      return FaultKind::kBurstArrival;
  }
}

FaultConfig DrawFaultConfig(Rng& rng, SpecId num_specs, Tick horizon) {
  FaultConfig config;
  config.seed = rng.Next();
  const int count = static_cast<int>(rng.UniformInt(1, 3));
  for (int i = 0; i < count; ++i) {
    FaultSpec fault;
    fault.kind = DrawFaultKind(rng);
    fault.spec = rng.Bernoulli(0.3)
                     ? kInvalidSpec
                     : static_cast<SpecId>(
                           rng.UniformInt(0, num_specs - 1));
    if (rng.Bernoulli(0.5)) {
      fault.at = rng.UniformInt(0, horizon - 1);
    } else {
      fault.probability = rng.UniformRange(0.01, 0.25);
    }
    fault.extra = rng.UniformInt(1, 5);
    fault.count = static_cast<int>(rng.UniformInt(1, 3));
    config.faults.push_back(fault);
  }
  return config;
}

std::string CorpusFileName(const FuzzFinding& finding) {
  std::string oracle = finding.failure.oracle;
  for (char& c : oracle) {
    if (c == '/' || c == ' ') c = '-';
  }
  return StrFormat("crash-%s-s%016llx-i%d.scn", oracle.c_str(),
                   static_cast<unsigned long long>(finding.scenario_seed),
                   finding.iteration);
}

}  // namespace

ScenarioFuzzer::ScenarioFuzzer(FuzzOptions options)
    : options_(std::move(options)) {}

StatusOr<Scenario> ScenarioFuzzer::MakeScenario(int iteration) const {
  const std::uint64_t scenario_seed = MixSeed(options_.seed, iteration);
  Rng rng(scenario_seed);

  WorkloadParams params;
  params.num_transactions = static_cast<int>(rng.UniformInt(2, 6));
  params.num_items = static_cast<int>(rng.UniformInt(2, 8));
  params.total_utilization = rng.UniformRange(0.3, 0.95);
  params.min_period = rng.UniformInt(20, 40);
  params.max_period = params.min_period + rng.UniformInt(20, 160);
  params.min_ops = 1;
  params.max_ops = static_cast<int>(
      rng.UniformInt(1, std::min(4, params.num_items)));
  params.write_fraction = rng.UniformRange(0.0, 0.8);

  auto set = GenerateWorkload(params, rng);
  PCPDA_RETURN_IF_ERROR(set.status());

  const Tick cap = options_.horizon_cap > 16 ? options_.horizon_cap : 16;
  const Tick horizon = rng.UniformInt(cap / 2 > 0 ? cap / 2 : 1, cap);

  FaultConfig faults;
  if (rng.Bernoulli(options_.fault_probability)) {
    faults = DrawFaultConfig(rng, set->size(), horizon);
  }

  Scenario scenario{
      StrFormat("fuzz_%016llx_i%d",
                static_cast<unsigned long long>(scenario_seed), iteration),
      std::move(set).value(), horizon, {}, std::move(faults), {}, {}};
  return scenario;
}

bool ScenarioFuzzer::CheckScenario(BatchRunner& runner,
                                   const Scenario& scenario, int iteration,
                                   std::uint64_t scenario_seed,
                                   FuzzReport& report) {
  const auto budget_spent = [&] {
    return static_cast<int>(report.findings.size()) >=
           options_.max_findings;
  };

  if (options_.lint) {
    const LintReport lint = LintScenario(scenario, LintFilterOptions());
    if (!lint.clean()) {
      // The scenario is statically invalid: for generated scenarios a
      // disagreement between the generator's and the analyzer's validity
      // definitions, for replayed files a stale or corrupt corpus entry.
      // Simulating it would test nothing, so report and move on.
      FuzzFinding finding;
      finding.iteration = iteration;
      finding.scenario_seed = scenario_seed;
      finding.failure = OracleFailure{
          "lint", "",
          StrFormat("%d lint error(s): %s", lint.errors(),
                    lint.diagnostics.front().message.c_str())};
      finding.original_text = FormatScenario(scenario);
      finding.minimal_text = finding.original_text;
      report.findings.push_back(std::move(finding));
      return budget_spent();
    }
  }

  // Compile once (the lint gate already ran above; replayed corpus files
  // skip it the same way they always did), so the protocol x repeat
  // fan-out shares one ceiling/calendar lowering.
  const CompiledPlan compiled =
      CompiledPlan::Compile(scenario, {.lint = false}).value();
  const std::vector<SimResult> results =
      runner.Run(PlanOracleRuns(compiled, options_.oracles));
  const OracleVerdict verdict =
      EvaluateOracleRuns(scenario, options_.oracles, results);
  if (verdict.ok()) return false;

  FuzzFinding finding;
  finding.iteration = iteration;
  finding.scenario_seed = scenario_seed;
  finding.failure = verdict.failures.front();
  finding.original_text = FormatScenario(scenario);

  const ShrinkResult shrunk = Shrink(scenario, options_.oracles,
                                     finding.failure, options_.shrink);
  finding.shrunk = shrunk.reproduced;
  finding.shrink_evals = shrunk.evals;
  finding.minimal_text =
      shrunk.reproduced ? shrunk.scn_text : finding.original_text;

  if (!options_.corpus_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(options_.corpus_dir, ec);
    const std::string path =
        options_.corpus_dir + "/" + CorpusFileName(finding);
    std::ofstream out(path, std::ios::binary);
    if (!out.good()) {
      report.io_status =
          Status::Internal("cannot write corpus file: " + path);
    } else {
      out << "# fuzz finding: " << finding.failure.DebugString() << "\n";
      out << StrFormat("# campaign seed=%llu iteration=%d "
                       "scenario_seed=%016llx shrink_evals=%d\n",
                       static_cast<unsigned long long>(options_.seed),
                       iteration,
                       static_cast<unsigned long long>(
                           finding.scenario_seed),
                       finding.shrink_evals);
      out << finding.minimal_text;
      finding.corpus_file = path;
    }
  }

  report.findings.push_back(std::move(finding));
  return budget_spent();
}

bool ScenarioFuzzer::ReplayCorpus(BatchRunner& runner,
                                  FuzzReport& report) {
  std::error_code ec;
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.replay_dir, ec)) {
    if (entry.path().extension() == ".scn") {
      paths.push_back(entry.path().string());
    }
  }
  if (ec) {
    report.io_status = Status::Internal(
        StrFormat("cannot read replay dir %s: %s",
                  options_.replay_dir.c_str(), ec.message().c_str()));
    return false;
  }
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    auto scenario = LoadScenarioFile(path);
    if (!scenario.ok()) {
      // A replay file that no longer parses is itself a finding: the
      // corpus and the parser have drifted apart.
      FuzzFinding finding;
      finding.iteration = -1;
      finding.failure = OracleFailure{
          "replay-load", "",
          path + ": " + scenario.status().ToString()};
      report.findings.push_back(std::move(finding));
    } else {
      ++report.replayed;
      if (CheckScenario(runner, *scenario, -1, 0, report)) return true;
    }
    if (static_cast<int>(report.findings.size()) >=
        options_.max_findings) {
      return true;
    }
  }
  return false;
}

FuzzReport ScenarioFuzzer::Run() {
  FuzzReport report;
  // One pool for the whole campaign: every iteration's protocol fan-out
  // (8 protocols x 2 runs under the determinism oracle) is one batch.
  // Shrinking stays serial — it is a sequential search by nature.
  BatchRunner runner(BatchOptions{options_.jobs});

  // Replayed corpus/quarantine scenarios run first: known-bad inputs are
  // the cheapest place to find a regression.
  if (!options_.replay_dir.empty() && ReplayCorpus(runner, report)) {
    return report;
  }

  for (int iteration = 0; iteration < options_.iterations; ++iteration) {
    report.iterations = iteration + 1;
    auto scenario = MakeScenario(iteration);
    if (!scenario.ok()) {
      // Generation parameters are drawn inside validated ranges, so this
      // indicates a generator/validation bug — report it as a finding.
      FuzzFinding finding;
      finding.iteration = iteration;
      finding.scenario_seed = MixSeed(options_.seed, iteration);
      finding.failure = OracleFailure{"generator", "",
                                      scenario.status().ToString()};
      report.findings.push_back(std::move(finding));
      if (static_cast<int>(report.findings.size()) >=
          options_.max_findings) {
        break;
      }
      continue;
    }
    if (scenario->faults.enabled()) ++report.scenarios_with_faults;

    if (CheckScenario(runner, *scenario, iteration,
                      MixSeed(options_.seed, iteration), report)) {
      break;
    }
  }
  return report;
}

std::string FuzzReport::Summary() const {
  std::vector<std::string> lines;
  lines.push_back(StrFormat(
      "%d iteration(s), %d with fault plans%s: %zu finding(s)",
      iterations, scenarios_with_faults,
      replayed > 0 ? StrFormat(", %d replayed", replayed).c_str() : "",
      findings.size()));
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const FuzzFinding& finding = findings[i];
    lines.push_back(StrFormat(
        "  #%zu iter=%d seed=%016llx %s%s", i, finding.iteration,
        static_cast<unsigned long long>(finding.scenario_seed),
        finding.failure.DebugString().c_str(),
        finding.shrunk
            ? StrFormat(" (shrunk, %d evals)", finding.shrink_evals)
                  .c_str()
            : " (not shrunk)"));
    if (!finding.corpus_file.empty()) {
      lines.push_back("    repro: " + finding.corpus_file);
    }
  }
  if (!io_status.ok()) lines.push_back("io: " + io_status.ToString());
  return Join(lines, "\n");
}

}  // namespace pcpda
