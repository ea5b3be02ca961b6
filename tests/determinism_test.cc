// Golden determinism test: a full simulator run over
// scenarios/example3_faulty.scn must be byte-identical — trace events,
// per-tick schedule, metrics, history and audit verdict — for every
// protocol, run after run and engine rewrite after engine rewrite. The
// golden file was recorded from the pre-event-driven (per-tick full-scan)
// engine, so it pins the event-driven core to the exact behavior of its
// predecessor. Regenerate deliberately with
//
//   PCPDA_REGEN_GOLDEN=1 ./tests/determinism_test
//
// only after verifying that a behavior change is intended.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/oracles.h"
#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

std::string SourcePath(const char* relative) {
  return std::string(PCPDA_SOURCE_DIR "/") + relative;
}

Scenario LoadScenario() {
  auto scenario = LoadScenarioFile(SourcePath("scenarios/example3_faulty.scn"));
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

CompiledPlan Compile(const Scenario& scenario) {
  return CompiledPlan::Compile(scenario, {.lint = false}).value();
}

/// One protocol's full run rendered as text: a header naming the protocol,
/// then the determinism oracle's digest. Everything observable lands here:
/// any engine change that perturbs the schedule shows up as a diff.
std::string RenderRun(const CompiledPlan& plan, ProtocolKind kind) {
  const Scenario& scenario = plan.scenario();
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = scenario.horizon;
  options.faults = scenario.faults;
  options.audit = true;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  Simulator sim(plan, protocol.get(), options);
  const SimResult result = sim.Run();
  return "=== " + std::string(ToString(kind)) + " ===\n" +
         RenderRunDigest(scenario.set, result);
}

/// All 8 protocols over one plan, the way run_scenario and the fuzzer
/// share it.
std::string RenderAllProtocols(const Scenario& scenario) {
  const CompiledPlan plan = Compile(scenario);
  std::ostringstream out;
  for (ProtocolKind kind : AllProtocolKinds()) {
    out << RenderRun(plan, kind);
  }
  return out.str();
}

TEST(DeterminismTest, GoldenExample3FaultyAllProtocols) {
  const Scenario scenario = LoadScenario();
  const std::string actual = RenderAllProtocols(scenario);
  const std::string golden_path =
      SourcePath("tests/golden/example3_faulty.golden");

  if (std::getenv("PCPDA_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << actual;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with PCPDA_REGEN_GOLDEN=1)";
  std::ostringstream expected;
  expected << in.rdbuf();

  if (actual != expected.str()) {
    // Locate the first divergence to keep the failure readable.
    const std::string& want = expected.str();
    std::size_t at = 0;
    while (at < actual.size() && at < want.size() &&
           actual[at] == want[at]) {
      ++at;
    }
    const std::size_t from = at < 120 ? 0 : at - 120;
    FAIL() << "run diverges from golden at byte " << at << "\n--- golden:\n"
           << want.substr(from, 240) << "\n--- actual:\n"
           << actual.substr(from, 240);
  }
}

// A plan is immutable: one plan shared by all 8 protocols (dense hot-path
// state, prebuilt cursor copied per run) must render exactly what a fresh
// plan per run renders, on the richest scenario we have: fault plan
// active, auditor on, deadlock aborts.
TEST(DeterminismTest, SharedPlanMatchesFreshPlanAllProtocols) {
  const Scenario scenario = LoadScenario();
  const CompiledPlan shared = Compile(scenario);
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(RenderRun(shared, kind), RenderRun(Compile(scenario), kind))
        << "shared plan diverges under " << ToString(kind);
  }
}

TEST(DeterminismTest, BackToBackRunsAreIdentical) {
  const CompiledPlan plan = Compile(LoadScenario());
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(RenderRun(plan, kind), RenderRun(plan, kind))
        << "protocol " << ToString(kind) << " is not deterministic";
  }
}

}  // namespace
}  // namespace pcpda
