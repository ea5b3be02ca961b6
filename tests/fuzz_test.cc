// Tests for the differential scenario fuzzer: oracle stack, shrinker,
// campaign determinism, the broken-build acceptance check, and replay of
// the committed crash corpus under the correct protocols.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "common/strings.h"
#include "fuzz/fuzzer.h"
#include "fuzz/oracles.h"
#include "fuzz/shrinker.h"
#include "lint/lint.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

FuzzOptions SmokeOptions() {
  FuzzOptions options;
  options.seed = 1;
  options.iterations = 200;
  options.horizon_cap = 160;
  return options;
}

// --- Oracle stack ----------------------------------------------------------

TEST(OracleTest, GeneratedScenariosPassOnCorrectBuild) {
  const ScenarioFuzzer fuzzer(SmokeOptions());
  for (int i = 0; i < 5; ++i) {
    const auto scenario = fuzzer.MakeScenario(i);
    ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
    const OracleVerdict verdict = RunOracles(*scenario, OracleOptions{});
    EXPECT_TRUE(verdict.ok()) << verdict.DebugString();
  }
}

TEST(OracleTest, PaperExampleScenarioPasses) {
  const char* text = R"(
scenario oracle_smoke
horizon 40
txn T1 period=10
  read a
  compute 1
end
txn T2 period=20
  write a
  compute 2
end
)";
  const auto scenario = ParseScenario(text);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const OracleVerdict verdict = RunOracles(*scenario, OracleOptions{});
  EXPECT_TRUE(verdict.ok()) << verdict.DebugString();
}

TEST(OracleTest, RejectsScenarioWithoutUsableHorizon) {
  // One-shot transactions only and no horizon: nothing to bound the run.
  const char* text = R"(
scenario no_horizon
txn T1 offset=0
  read a
end
)";
  const auto scenario = ParseScenario(text);
  ASSERT_TRUE(scenario.ok());
  const OracleVerdict verdict = RunOracles(*scenario, OracleOptions{});
  ASSERT_FALSE(verdict.ok());
  EXPECT_EQ(verdict.failures.front().oracle, "config");
}

TEST(OracleTest, ReproducesIsFalseForPassingScenario) {
  const ScenarioFuzzer fuzzer(SmokeOptions());
  const auto scenario = fuzzer.MakeScenario(0);
  ASSERT_TRUE(scenario.ok());
  const OracleFailure failure{"serializability", "PCP-DA", ""};
  EXPECT_FALSE(Reproduces(*scenario, OracleOptions{}, failure));
}

// --- Determinism oracle -----------------------------------------------------

// Trace and History expose no mutators for recorded data. The runs
// edited here are local copies, so writing through the const accessors is
// well-defined.
template <typename T>
T& Mutable(const T& member) {
  return const_cast<T&>(member);
}

// The fields of one run the perturbations below edit: the first blocked
// sample with blockers, the first trace event with a note, and the first
// committed read. Null when the run has none.
struct EditableFields {
  BlockedSample* blocked = nullptr;
  TraceEvent* noted = nullptr;
  HistoryOp* read = nullptr;

  explicit EditableFields(SimResult& run) {
    for (TickSpan& span : Mutable(run.trace.spans())) {
      for (BlockedSample& sample : span.record.blocked) {
        if (blocked == nullptr && !sample.blockers.empty()) blocked = &sample;
      }
    }
    for (TraceEvent& event : Mutable(run.trace.events())) {
      if (noted == nullptr && !event.note.empty()) noted = &event;
    }
    for (CommittedTxn& txn : Mutable(run.history.committed())) {
      for (HistoryOp& op : txn.ops) {
        if (read == nullptr && op.kind == HistoryOp::Kind::kRead) read = &op;
      }
    }
  }
  bool all() const {
    return blocked != nullptr && noted != nullptr && read != nullptr;
  }
};

// The determinism oracle compares the twin runs field by field and renders
// RenderRunDigest only when they differ. Its verdict must be exactly the
// one a digest comparison alone gives, so these tests perturb one field of
// the re-run at a time and derive the expected outcome from the digests.
class DeterminismOracleTest : public ::testing::Test {
 protected:
  // One generated scenario through all 8 protocols in PlanOracleRuns
  // order (run, re-run per protocol); the target is the first protocol
  // whose run has every field EditableFields looks for.
  void SetUp() override {
    const ScenarioFuzzer fuzzer(SmokeOptions());
    for (int i = 0; i < 40 && target_ < 0; ++i) {
      auto scenario = fuzzer.MakeScenario(i);
      ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
      scenario_.emplace(std::move(scenario).value());
      results_.clear();
      for (const RunSpec& spec : PlanOracleRuns(*scenario_, options_)) {
        results_.push_back(BatchRunner::RunOne(spec));
      }
      for (std::size_t k = 0; k < results_.size() / 2; ++k) {
        SimResult copy = results_[2 * k];
        if (copy.status.ok() && EditableFields(copy).all()) {
          target_ = static_cast<int>(k);
          break;
        }
      }
    }
    ASSERT_GE(target_, 0) << "no scenario exercises every rendered field";
    const OracleVerdict verdict =
        EvaluateOracleRuns(*scenario_, options_, results_);
    ASSERT_TRUE(verdict.ok()) << verdict.DebugString();
  }

  const SimResult& run() const {
    return results_[2 * static_cast<std::size_t>(target_)];
  }

  // The verdict with the target protocol's re-run replaced by `again`.
  OracleVerdict EvaluateWithRerun(const SimResult& again) const {
    std::vector<SimResult> results = results_;
    results[2 * static_cast<std::size_t>(target_) + 1] = again;
    return EvaluateOracleRuns(*scenario_, options_, results);
  }

  // A rendered perturbation: the digests differ, and the verdict is one
  // determinism failure whose detail is built from the digests alone.
  void ExpectOneFailure(const SimResult& again, const char* what) const {
    SCOPED_TRACE(what);
    const std::string first = RenderRunDigest(scenario_->set, run());
    const std::string second = RenderRunDigest(scenario_->set, again);
    ASSERT_NE(first, second);
    const std::size_t at = static_cast<std::size_t>(
        std::mismatch(first.begin(), first.end(), second.begin(),
                      second.end())
            .first -
        first.begin());
    const OracleVerdict verdict = EvaluateWithRerun(again);
    ASSERT_EQ(verdict.failures.size(), 1u) << verdict.DebugString();
    const OracleFailure& failure = verdict.failures.front();
    EXPECT_EQ(failure.oracle, "determinism");
    EXPECT_EQ(failure.protocol,
              ToString(AllProtocolKinds()[static_cast<std::size_t>(target_)]));
    EXPECT_EQ(failure.detail,
              StrFormat("re-run diverges at digest byte %zu: ...%s... vs "
                        "...%s...",
                        at, first.substr(at, 48).c_str(),
                        second.substr(at, 48).c_str()));
  }

  // An unrendered perturbation: the digests agree, so no failure.
  void ExpectNoFailure(const SimResult& again, const char* what) const {
    SCOPED_TRACE(what);
    ASSERT_EQ(RenderRunDigest(scenario_->set, run()),
              RenderRunDigest(scenario_->set, again));
    const OracleVerdict verdict = EvaluateWithRerun(again);
    EXPECT_TRUE(verdict.ok()) << verdict.DebugString();
  }

  OracleOptions options_;
  std::optional<Scenario> scenario_;
  std::vector<SimResult> results_;
  int target_ = -1;
};

TEST_F(DeterminismOracleTest, IdenticalTwinPasses) {
  // The re-runs PlanOracleRuns produced are identical already; a copy of
  // the first run as its own twin must pass as well.
  ExpectNoFailure(run(), "copy of the run");
}

TEST_F(DeterminismOracleTest, EachRenderedFieldDivergesOnce) {
  {
    SimResult again = run();
    again.status = Status::Internal("perturbed");
    ExpectOneFailure(again, "status");
  }
  {
    SimResult again = run();
    again.audit.violations.push_back(
        AuditViolation{3, "sysceil", "perturbed"});
    ExpectOneFailure(again, "audit violation");
  }
  {
    SimResult again = run();
    again.metrics.per_spec.front().conflict_blocks += 1;
    ExpectOneFailure(again, "SpecMetrics counter");
  }
  {
    SimResult again = run();
    EditableFields(again).noted->note += "'";
    ExpectOneFailure(again, "trace event note");
  }
  {
    SimResult again = run();
    EditableFields(again).blocked->blockers.push_back(99);
    ExpectOneFailure(again, "tick blocker list");
  }
  {
    SimResult again = run();
    TickRecord& tick = Mutable(again.trace.spans()).front().record;
    tick.ceiling =
        Priority(tick.ceiling.is_dummy() ? 1 : tick.ceiling.level() + 1);
    ExpectOneFailure(again, "tick ceiling");
  }
  {
    SimResult again = run();
    EditableFields(again).read->seq += 1;
    ExpectOneFailure(again, "history op seq");
  }
}

TEST_F(DeterminismOracleTest, UnrenderedFieldsPass) {
  {
    SimResult again = run();
    again.metrics.lock_decisions += 1;
    ASSERT_NE(again.metrics, run().metrics);
    ExpectNoFailure(again, "RunMetrics::lock_decisions");
  }
  {
    // HistoryOp::DebugString prints kind, item, tick, seq and the
    // own-read mark, not the value a read observed.
    SimResult again = run();
    EditableFields(again).read->observed.version += 1;
    ASSERT_NE(again.history, run().history);
    ExpectNoFailure(again, "history op observed value");
  }
  {
    // Status::ToString prints "OK" for any OK status.
    SimResult again = run();
    again.status = Status(StatusCode::kOk, "perturbed");
    ASSERT_NE(again.status, run().status);
    ExpectNoFailure(again, "message of an OK status");
  }
}

// --- Campaign determinism --------------------------------------------------

TEST(FuzzerTest, SameSeedSameScenarios) {
  const ScenarioFuzzer a(SmokeOptions());
  const ScenarioFuzzer b(SmokeOptions());
  for (int i = 0; i < 10; ++i) {
    const auto sa = a.MakeScenario(i);
    const auto sb = b.MakeScenario(i);
    ASSERT_TRUE(sa.ok());
    ASSERT_TRUE(sb.ok());
    EXPECT_EQ(FormatScenario(*sa), FormatScenario(*sb));
  }
}

TEST(FuzzerTest, DifferentSeedsDifferentScenarios) {
  FuzzOptions other = SmokeOptions();
  other.seed = 2;
  const ScenarioFuzzer a(SmokeOptions());
  const ScenarioFuzzer b(other);
  ASSERT_TRUE(a.MakeScenario(0).ok());
  ASSERT_TRUE(b.MakeScenario(0).ok());
  EXPECT_NE(FormatScenario(*a.MakeScenario(0)),
            FormatScenario(*b.MakeScenario(0)));
}

TEST(FuzzerTest, SameSeedSameReport) {
  FuzzOptions options = SmokeOptions();
  options.iterations = 30;
  ScenarioFuzzer a(options);
  ScenarioFuzzer b(options);
  EXPECT_EQ(a.Run().Summary(), b.Run().Summary());
}

// The batch runner's contract end to end: a campaign whose per-iteration
// protocol fan-out runs on 4 executors must produce byte-identical
// findings to the serial campaign — same iterations flagged, same
// derived scenario seeds, same failure text, and the exact same shrunken
// repro bytes. Runs against the broken T*-guard build so the campaign
// actually finds (and shrinks) failures on both sides.
TEST(FuzzerTest, CampaignParallelJobsMatchSerial) {
  FuzzOptions serial = SmokeOptions();
  serial.oracles.pcp_da.enable_tstar_guard = false;
  serial.max_findings = 3;
  serial.shrink.max_evals = 80;
  FuzzOptions parallel = serial;
  parallel.jobs = 4;

  ScenarioFuzzer a(serial);
  ScenarioFuzzer b(parallel);
  const FuzzReport ra = a.Run();
  const FuzzReport rb = b.Run();

  ASSERT_FALSE(ra.findings.empty())
      << "serial campaign missed the broken build";
  EXPECT_EQ(ra.iterations, rb.iterations);
  EXPECT_EQ(ra.scenarios_with_faults, rb.scenarios_with_faults);
  ASSERT_EQ(ra.findings.size(), rb.findings.size());
  for (std::size_t i = 0; i < ra.findings.size(); ++i) {
    const FuzzFinding& fa = ra.findings[i];
    const FuzzFinding& fb = rb.findings[i];
    EXPECT_EQ(fa.iteration, fb.iteration);
    EXPECT_EQ(fa.scenario_seed, fb.scenario_seed);
    EXPECT_EQ(fa.failure.DebugString(), fb.failure.DebugString());
    EXPECT_EQ(fa.original_text, fb.original_text);
    EXPECT_EQ(fa.minimal_text, fb.minimal_text);
    EXPECT_EQ(fa.shrunk, fb.shrunk);
    EXPECT_EQ(fa.shrink_evals, fb.shrink_evals);
  }
  EXPECT_EQ(ra.Summary(), rb.Summary());
}

// --- Broken-build acceptance ----------------------------------------------
// Disabling the T* guard yields the paper's Example-5 "condition (2)"
// protocol, which can deadlock. The oracles must catch it within the
// smoke budget and the shrinker must produce a parseable minimal .scn
// that still reproduces — and that passes on the correct build.

TEST(FuzzerTest, BrokenTstarGuardCaughtAndShrunk) {
  FuzzOptions options = SmokeOptions();
  options.oracles.pcp_da.enable_tstar_guard = false;
  ScenarioFuzzer fuzzer(options);
  const FuzzReport report = fuzzer.Run();
  ASSERT_FALSE(report.findings.empty())
      << "oracles missed the intentionally broken PCP-DA build";

  const FuzzFinding& finding = report.findings.front();
  EXPECT_EQ(finding.failure.protocol, "PCP-DA");
  EXPECT_TRUE(finding.shrunk) << "finding did not survive shrinking";

  // The minimal repro must parse and still fail under the broken build.
  const auto minimal = ParseScenario(finding.minimal_text);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_TRUE(Reproduces(*minimal, options.oracles, finding.failure))
      << finding.minimal_text;

  // Shrinking only removed things: the minimal scenario is no larger.
  const auto original = ParseScenario(finding.original_text);
  ASSERT_TRUE(original.ok());
  EXPECT_LE(minimal->set.size(), original->set.size());
  EXPECT_LE(minimal->horizon, original->horizon);

  // The same scenario passes every oracle on the correct build.
  const OracleVerdict correct = RunOracles(*minimal, OracleOptions{});
  EXPECT_TRUE(correct.ok()) << correct.DebugString();
}

// Zeroing the analytical B_i (the --break=bound defect) must trip the
// blocking-bound oracle: any ceiling/push-through wait in the sim now
// exceeds the (fake) bound of 0.
TEST(FuzzerTest, ZeroedBlockingBoundCaughtAndShrunk) {
  FuzzOptions options = SmokeOptions();
  options.oracles.analysis_defect = AnalysisDefect::kZeroBlockingBound;
  options.max_findings = 1;
  ScenarioFuzzer fuzzer(options);
  const FuzzReport report = fuzzer.Run();
  ASSERT_FALSE(report.findings.empty())
      << "blocking-bound oracle missed the zeroed analytical bound";

  const FuzzFinding& finding = report.findings.front();
  EXPECT_EQ(finding.failure.oracle, "blocking-bound");
  EXPECT_TRUE(finding.shrunk) << "finding did not survive shrinking";

  const auto minimal = ParseScenario(finding.minimal_text);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_TRUE(Reproduces(*minimal, options.oracles, finding.failure))
      << finding.minimal_text;

  // With the real bounds restored the same scenario is clean.
  const OracleVerdict correct = RunOracles(*minimal, OracleOptions{});
  EXPECT_TRUE(correct.ok()) << correct.DebugString();
}

// Forcing the RTA to ignore blocking and restarts (the --break=rta
// defect) makes it claim "schedulable" for overloaded sets; the
// sched-sound oracle must catch the sim's deadline miss contradicting
// that claim.
TEST(FuzzerTest, OptimisticRtaCaughtAndShrunk) {
  FuzzOptions options = SmokeOptions();
  options.oracles.analysis_defect = AnalysisDefect::kOptimisticRta;
  options.max_findings = 1;
  ScenarioFuzzer fuzzer(options);
  const FuzzReport report = fuzzer.Run();
  ASSERT_FALSE(report.findings.empty())
      << "sched-sound oracle missed the optimistic response-time analysis";

  const FuzzFinding& finding = report.findings.front();
  EXPECT_EQ(finding.failure.oracle, "sched-sound");
  EXPECT_TRUE(finding.shrunk) << "finding did not survive shrinking";

  const auto minimal = ParseScenario(finding.minimal_text);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_TRUE(Reproduces(*minimal, options.oracles, finding.failure))
      << finding.minimal_text;

  const OracleVerdict correct = RunOracles(*minimal, OracleOptions{});
  EXPECT_TRUE(correct.ok()) << correct.DebugString();
}

// --- Shrinker --------------------------------------------------------------

TEST(ShrinkerTest, UnreproducibleFailureReportedUnshrunk) {
  const ScenarioFuzzer fuzzer(SmokeOptions());
  const auto scenario = fuzzer.MakeScenario(0);
  ASSERT_TRUE(scenario.ok());
  const OracleFailure phantom{"serializability", "PCP-DA", "phantom"};
  const ShrinkResult result =
      Shrink(*scenario, OracleOptions{}, phantom);
  EXPECT_FALSE(result.reproduced);
  // The unshrunk text still round-trips.
  EXPECT_TRUE(ParseScenario(result.scn_text).ok());
}

TEST(ShrinkerTest, BudgetIsRespected) {
  FuzzOptions options = SmokeOptions();
  options.oracles.pcp_da.enable_tstar_guard = false;
  ScenarioFuzzer fuzzer(options);
  // Find a failing iteration first.
  for (int i = 0; i < options.iterations; ++i) {
    const auto scenario = fuzzer.MakeScenario(i);
    ASSERT_TRUE(scenario.ok());
    const OracleVerdict verdict = RunOracles(*scenario, options.oracles);
    if (verdict.ok()) continue;
    ShrinkOptions budget;
    budget.max_evals = 3;
    const ShrinkResult result = Shrink(
        *scenario, options.oracles, verdict.failures.front(), budget);
    EXPECT_LE(result.evals, budget.max_evals);
    return;
  }
  FAIL() << "no failing scenario found for the broken build";
}

// Regression for a use-after-free in SimplifyFaultAttrs: shrinking a
// finding whose fault plan is load-bearing accepts the extra->1 shrink
// (a burst fault's extra is not serialized, so the candidate reproduces
// trivially), which replaces the current scenario while the old code
// still held a reference into its faults vector. Campaign seed 4,
// iteration 53 deterministically produces such a finding under the
// fully-broken PCP-DA build; run under ASan this pins the fix.
TEST(ShrinkerTest, FaultAttrShrinkOnLoadBearingFault) {
  FuzzOptions options;
  options.seed = 4;
  options.oracles.pcp_da.enable_tstar_guard = false;
  options.oracles.pcp_da.enable_wr_guard = false;
  const ScenarioFuzzer fuzzer(options);
  const auto scenario = fuzzer.MakeScenario(53);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const FaultSpec* burst = nullptr;
  for (const FaultSpec& fault : scenario->faults.faults) {
    if (fault.kind == FaultKind::kBurstArrival) burst = &fault;
  }
  ASSERT_NE(burst, nullptr);
  // Both attr-shrink branches must have something to do: extra->1 is
  // accepted (not serialized for bursts), count->1 is attempted.
  ASSERT_GT(burst->extra, 1);
  ASSERT_GT(burst->count, 1);

  const OracleVerdict verdict = RunOracles(*scenario, options.oracles);
  ASSERT_FALSE(verdict.ok()) << "broken build no longer fails seed 4/53";
  const ShrinkResult result =
      Shrink(*scenario, options.oracles, verdict.failures.front());
  ASSERT_TRUE(result.reproduced);
  // The fault plan is load-bearing: it must survive minimization.
  EXPECT_NE(result.scn_text.find("faults"), std::string::npos)
      << result.scn_text;
  const auto minimal = ParseScenario(result.scn_text);
  ASSERT_TRUE(minimal.ok()) << minimal.status().ToString();
  EXPECT_TRUE(
      Reproduces(*minimal, options.oracles, verdict.failures.front()));
}

// --- Corpus regression -----------------------------------------------------
// Every committed crash repro must parse and pass the full oracle stack
// on the correct build: past findings stay fixed, and the .scn writer's
// round-trip stays stable.

TEST(CorpusTest, CommittedCrashReprosPassOnCorrectBuild) {
  const std::filesystem::path corpus(PCPDA_SOURCE_DIR "/fuzz/corpus");
  ASSERT_TRUE(std::filesystem::exists(corpus)) << corpus;
  int replayed = 0;
  for (const auto& entry : std::filesystem::directory_iterator(corpus)) {
    if (entry.path().extension() != ".scn") continue;
    const auto scenario = LoadScenarioFile(entry.path().string());
    ASSERT_TRUE(scenario.ok())
        << entry.path() << ": " << scenario.status().ToString();
    const OracleVerdict verdict = RunOracles(*scenario, OracleOptions{});
    EXPECT_TRUE(verdict.ok())
        << entry.path() << ":\n"
        << verdict.DebugString();
    ++replayed;
  }
  EXPECT_GT(replayed, 0) << "corpus directory holds no .scn repros";
}

// --- Static/dynamic cross-check --------------------------------------------
// The generator, the static analyzer and the simulator define "valid
// scenario" independently; 1k generated scenarios must produce zero
// disagreements: nothing the analyzer rejects (the simulator would have
// run it) and nothing the simulator rejects (the analyzer passed it).

TEST(LintCrossCheckTest, ThousandGeneratedScenariosNoDisagreement) {
  FuzzOptions options;
  options.seed = 11;
  const ScenarioFuzzer fuzzer(options);
  int disagreements = 0;
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const auto scenario = fuzzer.MakeScenario(iteration);
    ASSERT_TRUE(scenario.ok()) << iteration;
    const LintReport report =
        LintScenario(*scenario, LintFilterOptions());
    if (!report.clean()) {
      ++disagreements;
      ADD_FAILURE() << "iteration " << iteration
                    << " statically rejected:\n"
                    << report.Render(scenario->name)
                    << FormatScenario(*scenario);
    }
  }
  EXPECT_EQ(disagreements, 0);
}

// A second, deeper slice: the first 50 scenarios also run one audited
// PCP-DA simulation each, proving the analyzer's "clean" scenarios are
// dynamically usable (the fuzz-smoke ctest covers the full oracle stack
// at campaign scale).

TEST(LintCrossCheckTest, CleanScenariosSimulateAndAuditClean) {
  FuzzOptions options;
  options.seed = 11;
  const ScenarioFuzzer fuzzer(options);
  for (int iteration = 0; iteration < 50; ++iteration) {
    const auto scenario = fuzzer.MakeScenario(iteration);
    ASSERT_TRUE(scenario.ok()) << iteration;
    ASSERT_TRUE(LintScenario(*scenario, LintFilterOptions()).clean());
    OracleOptions oracle_options;
    oracle_options.protocols = {ProtocolKind::kPcpDa};
    oracle_options.check_determinism = false;
    const OracleVerdict verdict = RunOracles(*scenario, oracle_options);
    EXPECT_TRUE(verdict.ok())
        << "iteration " << iteration << ":\n"
        << verdict.DebugString();
  }
}

}  // namespace
}  // namespace pcpda
