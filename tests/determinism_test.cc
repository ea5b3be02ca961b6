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

/// One protocol's full run rendered as text: a header naming the protocol,
/// then the determinism oracle's digest. Everything observable lands here:
/// any engine change that perturbs the schedule shows up as a diff.
/// With a plan the run goes through the compiled path; the contract is
/// that both paths render byte-identically.
std::string RenderRun(const Scenario& scenario, ProtocolKind kind,
                      const CompiledPlan* plan = nullptr) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = scenario.horizon;
  options.faults = scenario.faults;
  options.audit = true;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  const SimResult result = [&] {
    if (plan != nullptr) {
      Simulator sim(*plan, protocol.get(), options);
      return sim.Run();
    }
    Simulator sim(&scenario.set, protocol.get(), options);
    return sim.Run();
  }();

  return "=== " + std::string(ToString(kind)) + " ===\n" +
         RenderRunDigest(scenario.set, result);
}

std::string RenderAllProtocols(const Scenario& scenario) {
  std::ostringstream out;
  for (ProtocolKind kind : AllProtocolKinds()) {
    out << RenderRun(scenario, kind);
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

// The compiled path (one CompiledPlan shared by all 8 protocols, dense
// hot-path state) must be byte-identical to the interpreted path on the
// richest scenario we have: fault plan active, auditor on, deadlock
// aborts. Any divergence in trace events, per-tick schedule, blocked
// annotations, metrics, history or audit verdict fails here.
TEST(DeterminismTest, CompiledMatchesInterpretedAllProtocols) {
  const Scenario scenario = LoadScenario();
  CompileOptions compile_options;
  compile_options.lint = false;
  auto compiled = CompiledPlan::Compile(scenario, compile_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(RenderRun(scenario, kind),
              RenderRun(scenario, kind, &compiled.value()))
        << "compiled path diverges under " << ToString(kind);
  }
}

// And the compiled path must match the recorded golden directly (not
// just the interpreted run of this build), pinning it to the
// pre-CompiledPlan engine byte for byte.
TEST(DeterminismTest, CompiledMatchesGolden) {
  if (std::getenv("PCPDA_REGEN_GOLDEN") != nullptr) {
    GTEST_SKIP() << "golden being regenerated";
  }
  const Scenario scenario = LoadScenario();
  CompileOptions compile_options;
  compile_options.lint = false;
  auto compiled = CompiledPlan::Compile(scenario, compile_options);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  std::ostringstream actual;
  for (ProtocolKind kind : AllProtocolKinds()) {
    actual << RenderRun(scenario, kind, &compiled.value());
  }

  std::ifstream in(SourcePath("tests/golden/example3_faulty.golden"),
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual.str(), expected.str());
}

TEST(DeterminismTest, BackToBackRunsAreIdentical) {
  const Scenario scenario = LoadScenario();
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(RenderRun(scenario, kind), RenderRun(scenario, kind))
        << "protocol " << ToString(kind) << " is not deterministic";
  }
}

}  // namespace
}  // namespace pcpda
