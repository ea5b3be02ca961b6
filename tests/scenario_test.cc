#include <gtest/gtest.h>

#include <string>

#include "test_util.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

constexpr char kExample4Text[] = R"(
# Example 4 of the paper (Figures 4 and 5)
scenario example4
horizon 12
priority as-listed
item x
item y
item z

txn T1 offset=4
  read x
  compute 1
end
txn T2 offset=9
  write y
  compute 1
end
txn T3 offset=1
  read z
  write z
end
txn T4 offset=0
  read y
  write x
  compute 3
end
)";

TEST(ScenarioTest, ParsesExample4) {
  const auto scenario = ParseScenario(kExample4Text);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario->name, "example4");
  EXPECT_EQ(scenario->horizon, 12);
  EXPECT_EQ(scenario->set.size(), 4);
  EXPECT_EQ(scenario->items.size(), 3u);
  EXPECT_EQ(scenario->items.at("x"), 0);
  EXPECT_EQ(scenario->items.at("z"), 2);
  EXPECT_EQ(scenario->set.spec(3).body.size(), 3u);
  EXPECT_EQ(scenario->set.spec(3).body[0], Read(1));
}

TEST(ScenarioTest, ParsedExample4BehavesLikeBuiltin) {
  const auto scenario = ParseScenario(kExample4Text);
  ASSERT_TRUE(scenario.ok());
  const SimResult parsed =
      RunWith(scenario->set, ProtocolKind::kPcpDa, scenario->horizon);
  const PaperExample builtin = Example4();
  const SimResult expected = RunExample(builtin, ProtocolKind::kPcpDa);
  ASSERT_EQ(parsed.trace.tick_count(), expected.trace.tick_count());
  for (Tick t = 0; t < parsed.trace.tick_count(); ++t) {
    EXPECT_EQ(RunningSpecAt(parsed.trace, t),
              RunningSpecAt(expected.trace, t))
        << "tick " << t;
  }
}

TEST(ScenarioTest, AutoDeclaresItems) {
  const auto scenario = ParseScenario(
      "txn T period=10\n  read a\n  write b\nend\n");
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->items.size(), 2u);
  EXPECT_EQ(scenario->set.item_count(), 2);
}

TEST(ScenarioTest, DurationsAndDeadlines) {
  const auto scenario = ParseScenario(
      "txn T period=20 offset=3 deadline=15\n"
      "  read a 2\n  compute 5\n  write a 3\nend\n");
  ASSERT_TRUE(scenario.ok());
  const TransactionSpec& spec = scenario->set.spec(0);
  EXPECT_EQ(spec.period, 20);
  EXPECT_EQ(spec.offset, 3);
  EXPECT_EQ(spec.relative_deadline, 15);
  EXPECT_EQ(spec.ExecutionTime(), 10);
  EXPECT_EQ(spec.body[0].duration, 2);
}

TEST(ScenarioTest, DefaultsRateMonotonic) {
  const auto scenario = ParseScenario(
      "txn slow period=50\n  compute 1\nend\n"
      "txn fast period=10\n  compute 1\nend\n");
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->set.spec(0).name, "fast");
}

TEST(ScenarioTest, CommentsAndBlankLines) {
  const auto scenario = ParseScenario(
      "# header comment\n\n"
      "txn T period=10   # trailing comment\n"
      "  compute 1       # another\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
}

// --- Errors -------------------------------------------------------------

TEST(ScenarioTest, ErrorsCarryLineAndColumn) {
  const auto scenario = ParseScenario("scenario s\nbogus directive\n");
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("line 2:1:"),
            std::string::npos)
      << scenario.status().message();

  // The column points at the offending token, not the line start.
  const auto bad_mode = ParseScenario("priority fancy\n");
  ASSERT_FALSE(bad_mode.ok());
  EXPECT_NE(bad_mode.status().message().find("line 1:10:"),
            std::string::npos)
      << bad_mode.status().message();
}

TEST(ScenarioTest, RejectsUnterminatedTxn) {
  EXPECT_FALSE(ParseScenario("txn T period=10\n  compute 1\n").ok());
}

TEST(ScenarioTest, RejectsEmptyScenario) {
  EXPECT_FALSE(ParseScenario("scenario empty\n").ok());
}

TEST(ScenarioTest, RejectsBadStep) {
  EXPECT_FALSE(
      ParseScenario("txn T period=10\n  fetch x\nend\n").ok());
  EXPECT_FALSE(
      ParseScenario("txn T period=10\n  compute zero\nend\n").ok());
  EXPECT_FALSE(
      ParseScenario("txn T period=10\n  compute -3\nend\n").ok());
  EXPECT_FALSE(ParseScenario("txn T period=10\n  read\nend\n").ok());
}

TEST(ScenarioTest, RejectsBadAttributes) {
  EXPECT_FALSE(ParseScenario("txn T cadence=10\n  compute 1\nend\n").ok());
  EXPECT_FALSE(ParseScenario("txn T period\n  compute 1\nend\n").ok());
  EXPECT_FALSE(
      ParseScenario("priority fancy\ntxn T period=10\n  compute 1\nend\n")
          .ok());
  EXPECT_FALSE(
      ParseScenario("horizon 0\ntxn T period=10\n  compute 1\nend\n")
          .ok());
}

TEST(ScenarioTest, RejectsInvalidTransactionSet) {
  // Duplicate names surface from TransactionSet::Create.
  EXPECT_FALSE(ParseScenario("txn T period=10\n  compute 1\nend\n"
                             "txn T period=20\n  compute 1\nend\n")
                   .ok());
}

TEST(ScenarioTest, DuplicateTxnNameFlaggedAtItsLine) {
  // The parser itself rejects the clash (not just TransactionSet later)
  // so the error names the offending line of the second definition.
  const auto scenario =
      ParseScenario("txn T period=10\n  compute 1\nend\n"
                    "txn T period=20\n  compute 1\nend\n");
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("line 4"), std::string::npos);
  EXPECT_NE(scenario.status().message().find("duplicate txn name 'T'"),
            std::string::npos);
}

TEST(ScenarioTest, RejectsDuplicateFaultsBlock) {
  const auto scenario = ParseScenario(
      "txn T period=10\n  compute 1\nend\n"
      "faults\n  abort T at=1\nend\n"
      "faults\n  abort T at=2\nend\n");
  ASSERT_FALSE(scenario.ok());
  EXPECT_NE(scenario.status().message().find("line 7"), std::string::npos);
}

TEST(ScenarioTest, RejectsNegativeTxnAttributes) {
  for (const char* attr : {"period=-5", "offset=-1", "deadline=-3"}) {
    const auto scenario = ParseScenario(
        std::string("txn T ") + attr + "\n  compute 1\nend\n");
    ASSERT_FALSE(scenario.ok()) << attr;
    EXPECT_NE(scenario.status().message().find("line 1"),
              std::string::npos)
        << scenario.status().ToString();
  }
}

TEST(ScenarioTest, RejectsOutOfRangeFaultAttributes) {
  const char* const kBodies[] = {
      "  abort T at=-1\n",        // negative tick
      "  abort T prob=1.5\n",     // probability above 1
      "  abort T prob=-0.25\n",   // probability below 0
      "  overrun T at=0 by=0\n",  // non-positive overrun
      "  abort T at=0 count=0\n"  // non-positive count
  };
  for (const char* body : kBodies) {
    const auto scenario = ParseScenario(
        std::string("txn T period=10\n  compute 1\nend\nfaults\n") +
        body + "end\n");
    ASSERT_FALSE(scenario.ok()) << body;
    EXPECT_NE(scenario.status().message().find("line 5"),
              std::string::npos)
        << scenario.status().ToString();
  }
}

// --- Round trip -----------------------------------------------------------

TEST(ScenarioTest, FormatRoundTrips) {
  const PaperExample example = Example4();
  const std::string text =
      FormatScenario("roundtrip", example.set, example.horizon);
  const auto scenario = ParseScenario(text);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString() << "\n"
                             << text;
  EXPECT_EQ(scenario->horizon, example.horizon);
  ASSERT_EQ(scenario->set.size(), example.set.size());
  for (SpecId i = 0; i < example.set.size(); ++i) {
    EXPECT_EQ(scenario->set.spec(i).name, example.set.spec(i).name);
    EXPECT_EQ(scenario->set.spec(i).body, example.set.spec(i).body);
    EXPECT_EQ(scenario->set.spec(i).period, example.set.spec(i).period);
    EXPECT_EQ(scenario->set.spec(i).offset, example.set.spec(i).offset);
  }
}

TEST(ScenarioTest, FaultSeedRoundTripsFullUint64) {
  // Seeds live in the full uint64 domain; int64 parsing used to clamp
  // the upper half, silently changing every probabilistic fault draw.
  const auto scenario = ParseScenario(
      "txn T period=10\n  compute 1\nend\n"
      "faults seed=18446744073709551615\n  abort T prob=0.5\nend\n");
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  EXPECT_EQ(scenario->faults.seed, 18446744073709551615ULL);
  const auto reparsed = ParseScenario(FormatScenario(*scenario));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->faults.seed, scenario->faults.seed);
  EXPECT_FALSE(
      ParseScenario("txn T period=10\n  compute 1\nend\n"
                    "faults seed=18446744073709551616\nend\n")
          .ok());  // one past the domain
}

TEST(ScenarioTest, FaultProbabilityRoundTripsExactly) {
  Scenario scenario = ParseScenario(
                          "txn T period=10\n  compute 1\nend\n"
                          "faults seed=7\n  abort T prob=0.5\nend\n")
                          .value();
  // A full-precision double that %g would truncate.
  scenario.faults.faults[0].probability = 0.24437737720555081;
  const auto reparsed = ParseScenario(FormatScenario(scenario));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->faults.faults[0].probability,
            0.24437737720555081);
}

TEST(ScenarioTest, LoadScenarioFileMissing) {
  EXPECT_FALSE(LoadScenarioFile("/nonexistent/path.scn").ok());
}

// --- Source spans and the expect block ----------------------------------

TEST(ScenarioTest, RecordsSpansForParsedEntities) {
  const auto scenario = ParseScenario(
      "scenario s\n"
      "horizon 12\n"
      "item x\n"
      "txn A offset=1\n"
      "  read x\n"
      "  compute 2\n"
      "end\n"
      "faults seed=1\n"
      "  abort A at=3\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
  const ScenarioSpans& spans = scenario->spans;
  EXPECT_EQ(spans.horizon, (SourceSpan{2, 1}));
  ASSERT_TRUE(spans.items.count("x"));
  EXPECT_EQ(spans.items.at("x"), (SourceSpan{3, 6}));
  ASSERT_TRUE(spans.txns.count("A"));
  EXPECT_EQ(spans.txns.at("A"), (SourceSpan{4, 5}));
  ASSERT_EQ(spans.steps.at("A").size(), 2u);
  EXPECT_EQ(spans.steps.at("A")[0], (SourceSpan{5, 3}));
  EXPECT_EQ(spans.steps.at("A")[1], (SourceSpan{6, 3}));
  ASSERT_EQ(spans.faults.size(), 1u);
  EXPECT_EQ(spans.faults[0], (SourceSpan{9, 3}));
}

TEST(ScenarioTest, AutoDeclaredItemSpanIsFirstUse) {
  const auto scenario = ParseScenario(
      "scenario s\n"
      "txn A\n"
      "  write d\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
  EXPECT_EQ(scenario->spans.items.at("d"), (SourceSpan{3, 9}));
}

TEST(ScenarioTest, InMemoryScenariosHaveSyntheticSpans) {
  EXPECT_FALSE(SourceSpan{}.valid());
  EXPECT_EQ(SourceSpan{}.DebugString(), "?");
  EXPECT_EQ((SourceSpan{12, 5}).DebugString(), "12:5");
}

TEST(ScenarioTest, ParsesExpectBlock) {
  const auto scenario = ParseScenario(
      "scenario s\n"
      "item x\n"
      "txn A\n"
      "  write x\n"
      "end\n"
      "expect\n"
      "  wceil x A\n"
      "  aceil x dummy\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
  ASSERT_EQ(scenario->expects.size(), 2u);
  EXPECT_TRUE(scenario->expects[0].write_ceiling);
  EXPECT_EQ(scenario->expects[0].item, "x");
  EXPECT_EQ(scenario->expects[0].txn, "A");
  EXPECT_EQ(scenario->expects[0].span, (SourceSpan{7, 3}));
  EXPECT_FALSE(scenario->expects[1].write_ceiling);
  EXPECT_EQ(scenario->expects[1].txn, "dummy");
}

TEST(ScenarioTest, RejectsMalformedExpectLines) {
  EXPECT_FALSE(ParseScenario("txn A\n  read x\nend\n"
                             "expect\n  wceil x\nend\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn A\n  read x\nend\n"
                             "expect\n  ceiling x A\nend\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn A\n  read x\nend\nexpect\n").ok());
}

TEST(ScenarioTest, ExpectBlockRoundTrips) {
  const auto scenario = ParseScenario(
      "scenario s\n"
      "item x\n"
      "item y\n"
      "txn A\n"
      "  write x\n"
      "  read y\n"
      "end\n"
      "expect\n"
      "  wceil x A\n"
      "  aceil y dummy\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
  // Item references come back under the formatter's d<id> names, txn
  // references unchanged, kinds and order preserved.
  const auto reparsed = ParseScenario(FormatScenario(*scenario));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->expects.size(), 2u);
  EXPECT_TRUE(reparsed->expects[0].write_ceiling);
  EXPECT_EQ(reparsed->expects[0].item, "d0");
  EXPECT_EQ(reparsed->expects[0].txn, "A");
  EXPECT_FALSE(reparsed->expects[1].write_ceiling);
  EXPECT_EQ(reparsed->expects[1].item, "d1");
  EXPECT_EQ(reparsed->expects[1].txn, "dummy");

  // parse -> format -> parse is a fixpoint: formatting the reparse
  // yields the same bytes (d<id> names are stable under re-formatting).
  EXPECT_EQ(FormatScenario(*reparsed), FormatScenario(*scenario));
}

TEST(ScenarioTest, DanglingExpectNamesSurviveRoundTripVerbatim) {
  const auto scenario = ParseScenario(
      "scenario s\n"
      "txn A\n"
      "  write x\n"
      "end\n"
      "expect\n"
      "  wceil ghost A\n"
      "end\n");
  ASSERT_TRUE(scenario.ok());
  // `ghost` resolves to no item; the formatter keeps the name so the
  // linter still sees (and flags) the same dangling reference.
  const auto reparsed = ParseScenario(FormatScenario(*scenario));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  ASSERT_EQ(reparsed->expects.size(), 1u);
  EXPECT_EQ(reparsed->expects[0].item, "ghost");
}

}  // namespace
}  // namespace pcpda
