// Tests for the static scenario analyzer (src/lint/): per-rule unit
// tests with source-span assertions, the golden corpus of seeded
// defects under scenarios/bad/, and the guarantee that every shipped
// scenario lints without errors.

#include "lint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "protocols/factory.h"
#include "protocols/protocol.h"
#include "workload/paper_examples.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

std::string SourcePath(const std::string& relative) {
  return std::string(PCPDA_SOURCE_DIR "/") + relative;
}

std::string ReadFile(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

/// The diagnostics matching `rule`.
std::vector<LintDiagnostic> OfRule(const LintReport& report,
                                   const std::string& rule) {
  std::vector<LintDiagnostic> out;
  for (const LintDiagnostic& d : report.diagnostics) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

bool HasRule(const LintReport& report, const std::string& rule) {
  return !OfRule(report, rule).empty();
}

TEST(LintCeilingsTest, WceilMismatchCarriesSpanAndActualHolder) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn TH\n"
      "  write x\n"
      "end\n"
      "txn TL\n"
      "  read x\n"
      "end\n"
      "expect\n"
      "  wceil x TL\n"
      "end\n");
  const auto findings = OfRule(report, "wceil-mismatch");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kError);
  EXPECT_EQ(findings[0].entity, "x");
  EXPECT_EQ(findings[0].span, (SourceSpan{10, 3}));
  EXPECT_NE(findings[0].message.find("TH"), std::string::npos);
  EXPECT_FALSE(report.clean());
}

TEST(LintCeilingsTest, CorrectExpectationsAreClean) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn TH\n"
      "  write x\n"
      "  read y\n"
      "end\n"
      "txn TL\n"
      "  write y\n"
      "end\n"
      "expect\n"
      "  wceil x TH\n"
      "  wceil y TL\n"
      "  aceil y TH\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "wceil-mismatch"));
  EXPECT_FALSE(HasRule(report, "aceil-mismatch"));
  EXPECT_TRUE(report.clean());
}

TEST(LintCeilingsTest, DummyExpectationOnUnaccessedItem) {
  // `expect aceil y dummy` holds (nothing touches y); asserting a txn
  // priority on it is the mismatch, reported as "dummy" actual.
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn T1\n"
      "  read x\n"
      "end\n"
      "expect\n"
      "  aceil y dummy\n"
      "  aceil y T1\n"
      "end\n");
  EXPECT_FALSE(report.clean());
  const auto findings = OfRule(report, "aceil-mismatch");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("dummy"), std::string::npos);
}

TEST(LintCeilingsTest, DanglingExpectReferencesAreErrors) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  write x\n"
      "end\n"
      "expect\n"
      "  wceil ghost T1\n"
      "  aceil x phantom\n"
      "end\n");
  ASSERT_TRUE(HasRule(report, "expect-unknown-item"));
  ASSERT_TRUE(HasRule(report, "expect-unknown-txn"));
  EXPECT_EQ(OfRule(report, "expect-unknown-item")[0].span,
            (SourceSpan{7, 3}));
  EXPECT_EQ(OfRule(report, "expect-unknown-txn")[0].span,
            (SourceSpan{8, 3}));
  EXPECT_EQ(report.errors(), 2);
}

TEST(LintNestingTest, CrossingCriticalSectionsWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item a\n"
      "item b\n"
      "txn T1\n"
      "  read a\n"
      "  read b\n"
      "  write a\n"
      "  write b\n"
      "end\n");
  const auto findings = OfRule(report, "cs-overlap");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
  // Anchored at b's first access, where the nesting breaks.
  EXPECT_EQ(findings[0].span, (SourceSpan{6, 3}));
  EXPECT_TRUE(report.clean()) << "warnings do not make a scenario dirty";
}

TEST(LintNestingTest, ProperlyNestedSectionsDoNotWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item a\n"
      "item b\n"
      "txn T1\n"
      "  read a\n"
      "  read b\n"
      "  write b\n"
      "  write a\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "cs-overlap"));
}

TEST(LintNestingTest, AdjacentSameModeAccessWarns) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  write x\n"
      "  write x\n"
      "end\n");
  const auto findings = OfRule(report, "duplicate-access");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].span, (SourceSpan{5, 3}));
}

TEST(LintNestingTest, UpgradeAndSeparatedReaccessDoNotWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  read x\n"
      "  write x\n"
      "  compute 2\n"
      "  write x\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "duplicate-access"));
}

TEST(LintDeadlockTest, CrossedAccessOrderIsFlagged) {
  // The shape of the paper's Example 5.
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn TH\n"
      "  read y\n"
      "  write x\n"
      "end\n"
      "txn TL\n"
      "  read x\n"
      "  write y\n"
      "end\n");
  const auto findings = OfRule(report, "potential-deadlock");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(findings[0].span, (SourceSpan{4, 5}));
  EXPECT_NE(findings[0].message.find("TH"), std::string::npos);
  EXPECT_NE(findings[0].message.find("TL"), std::string::npos);
  EXPECT_NE(findings[0].message.find("2PL-PI"), std::string::npos);
}

TEST(LintDeadlockTest, ConsistentAccessOrderIsCycleFree) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn TH\n"
      "  write x\n"
      "  write y\n"
      "end\n"
      "txn TL\n"
      "  read x\n"
      "  read y\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "potential-deadlock"));
}

TEST(LintDeadlockTest, ReadOnlySharingIsNotAConflict) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "item z\n"
      "txn A\n"
      "  write y\n"
      "  read x\n"
      "end\n"
      "txn B\n"
      "  write z\n"
      "  read x\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "potential-deadlock"));
}

TEST(LintDeadEntityTest, UnusedItemWarnsAtDeclaration) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn T1\n"
      "  read x\n"
      "end\n");
  const auto findings = OfRule(report, "unused-item");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].entity, "y");
  EXPECT_EQ(findings[0].span, (SourceSpan{3, 6}));
}

TEST(LintDeadEntityTest, EntitiesBeyondHorizonWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "horizon 10\n"
      "item x\n"
      "txn worker\n"
      "  write x\n"
      "end\n"
      "txn sleeper offset=12\n"
      "  read x\n"
      "end\n"
      "faults seed=1\n"
      "  abort worker at=15\n"
      "end\n");
  ASSERT_TRUE(HasRule(report, "txn-beyond-horizon"));
  ASSERT_TRUE(HasRule(report, "fault-beyond-horizon"));
  EXPECT_EQ(OfRule(report, "txn-beyond-horizon")[0].entity, "sleeper");
  EXPECT_EQ(OfRule(report, "fault-beyond-horizon")[0].span,
            (SourceSpan{11, 3}));
}

TEST(LintDeadEntityTest, InHorizonEntitiesDoNotWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "horizon 10\n"
      "item x\n"
      "txn worker\n"
      "  write x\n"
      "end\n"
      "faults seed=1\n"
      "  abort worker at=3\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "txn-beyond-horizon"));
  EXPECT_FALSE(HasRule(report, "fault-beyond-horizon"));
}

TEST(LintDeadEntityTest, OverlongBodyWarns) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1 period=6\n"
      "  read x\n"
      "  compute 8\n"
      "end\n");
  const auto findings = OfRule(report, "overlong-body");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].entity, "T1");
}

TEST(LintSchedulabilityTest, OverloadAndUnschedulableWarn) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1 period=4\n"
      "  read x\n"
      "  compute 3\n"
      "end\n"
      "txn T2 period=4\n"
      "  write x\n"
      "  compute 1\n"
      "end\n");
  EXPECT_TRUE(HasRule(report, "utilization-overload"));
  const auto findings = OfRule(report, "unschedulable");
  ASSERT_GE(findings.size(), 1u);
  EXPECT_EQ(findings[0].entity, "T2");
  EXPECT_TRUE(report.clean());
}

TEST(LintSchedulabilityTest, OneShotSetsSkipWithNote) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  read x\n"
      "end\n");
  EXPECT_TRUE(HasRule(report, "analysis-skipped"));
  EXPECT_FALSE(HasRule(report, "unschedulable"));

  LintOptions no_notes;
  no_notes.include_notes = false;
  const LintReport quiet = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  read x\n"
      "end\n",
      no_notes);
  EXPECT_FALSE(HasRule(quiet, "analysis-skipped"));
}

TEST(LintSchedulabilityTest, FeasiblePeriodicSetIsQuiet) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1 period=10\n"
      "  read x\n"
      "end\n"
      "txn T2 period=20\n"
      "  write x\n"
      "end\n");
  EXPECT_FALSE(HasRule(report, "utilization-overload"));
  EXPECT_FALSE(HasRule(report, "unschedulable"));
  EXPECT_TRUE(report.clean());
}

TEST(LintParseErrorTest, SpanIsLiftedFromParserMessage) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "txn T1\n"
      "  read x\n");
  ASSERT_EQ(report.diagnostics.size(), 1u);
  const LintDiagnostic& d = report.diagnostics[0];
  EXPECT_EQ(d.rule, "parse-error");
  EXPECT_EQ(d.severity, LintSeverity::kError);
  EXPECT_EQ(d.span, (SourceSpan{3, 5}));
  EXPECT_NE(d.message.find("unterminated txn 'T1'"), std::string::npos)
      << d.message;
  // The position lives in the span, not duplicated in the message.
  EXPECT_EQ(d.message.find("line "), std::string::npos);
  EXPECT_FALSE(report.clean());
}

TEST(LintReportTest, RenderAndJsonCarryRuleAndPosition) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn T1\n"
      "  read x\n"
      "end\n");
  const std::string text = report.Render("file.scn");
  EXPECT_NE(text.find("file.scn:3:6: warning: "), std::string::npos)
      << text;
  EXPECT_NE(text.find("[unused-item]"), std::string::npos);
  EXPECT_NE(text.find("0 error(s), 1 warning(s), 1 note(s)"),
            std::string::npos);

  JsonWriter writer;
  report.RenderJson("file.scn", writer);
  const std::string json = writer.Finish();
  EXPECT_NE(json.find("\"rule\": \"unused-item\""), std::string::npos);
  EXPECT_NE(json.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"errors\": 0"), std::string::npos);
}

TEST(LintReportTest, DiagnosticsAreOrderedBySourcePosition) {
  const LintReport report = LintScenarioText(
      "scenario s\n"
      "item used\n"
      "item zz\n"
      "item aa\n"
      "txn T1\n"
      "  read used\n"
      "end\n");
  ASSERT_GE(report.diagnostics.size(), 2u);
  int last_line = 0;
  for (const LintDiagnostic& d : report.diagnostics) {
    if (!d.span.valid()) continue;
    EXPECT_GE(d.span.line, last_line);
    last_line = d.span.line;
  }
  // Synthetic spans (the analysis-skipped note) sort last.
  EXPECT_FALSE(report.diagnostics.back().span.valid());
}

TEST(LintFilterTest, PaperExamplesAreNotRejected) {
  for (PaperExample example :
       {Example1(), Example3(), Example4(), Example5()}) {
    const Scenario scenario{example.name, std::move(example.set),
                            example.horizon, {}, {}, {}, {}};
    EXPECT_FALSE(LintRejects(scenario)) << example.name;
  }
}

TEST(LintFilterTest, FilterIgnoresWarningsButNotErrors) {
  // Crossed access order: warning only -> not rejected.
  auto deadlock = ParseScenario(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn A\n"
      "  read y\n"
      "  write x\n"
      "end\n"
      "txn B\n"
      "  read x\n"
      "  write y\n"
      "end\n");
  ASSERT_TRUE(deadlock.ok());
  EXPECT_FALSE(LintRejects(*deadlock));

  auto mismatch = ParseScenario(
      "scenario s\n"
      "item x\n"
      "txn A\n"
      "  read x\n"
      "end\n"
      "expect\n"
      "  wceil x A\n"
      "end\n");
  ASSERT_TRUE(mismatch.ok());
  EXPECT_TRUE(LintRejects(*mismatch));
}

TEST(LintTraitsTest, TraitsOfMatchesProtocolVirtuals) {
  // The deadlock-freedom flags the deadlock rule's message relies on:
  // exactly 2PL-PI is vulnerable.
  for (ProtocolKind kind : AllProtocolKinds()) {
    EXPECT_EQ(TraitsOf(kind).deadlock_free,
              kind != ProtocolKind::kTwoPlPi)
        << ToString(kind);
  }
}

TEST(LintGoldenTest, BadCorpusMatchesGoldenDiagnostics) {
  const std::string dir = SourcePath("scenarios/bad");
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 10u);
  for (const std::string& file : files) {
    const std::string stem = std::filesystem::path(file).stem().string();
    const auto report = LintScenarioFile(file, LintOptions{});
    ASSERT_TRUE(report.ok()) << file;
    // Every seeded defect must be caught at warning strength or above,
    // and anchored into the file.
    EXPECT_GT(report->CountAtLeast(LintSeverity::kWarning), 0) << file;
    bool spanned = false;
    for (const LintDiagnostic& d : report->diagnostics) {
      spanned |= d.span.valid();
    }
    EXPECT_TRUE(spanned) << file;
    const std::string golden =
        ReadFile(SourcePath("tests/golden/lint/" + stem + ".golden"));
    EXPECT_EQ(report->Render(stem + ".scn"), golden) << file;
  }
}

TEST(LintGoldenTest, ShippedScenariosLintClean) {
  LintOptions options;
  options.analysis_protocols = AnalyzableProtocolKinds();
  const std::string dir = SourcePath("scenarios");
  int seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".scn") continue;
    ++seen;
    const auto report = LintScenarioFile(entry.path().string(), options);
    ASSERT_TRUE(report.ok()) << entry.path();
    EXPECT_EQ(report->errors(), 0)
        << entry.path() << "\n" << report->Render(entry.path().string());
  }
  EXPECT_GE(seen, 6);
}

}  // namespace
}  // namespace pcpda
