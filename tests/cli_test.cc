// Tests for the strict CLI/env numeric parsing (src/common/parse.*) and
// regression coverage for the example binaries: a typo'd numeric flag
// used to be silently std::atoi'd to 0 and the run "succeeded" with a
// nonsense configuration; now every such flag fails loudly with exit
// code 2. run_scenario's output on the shipped scenarios is pinned
// against tests/golden/run_scenario/. The spawned-binary cases use the
// real executables under PCPDA_BINARY_DIR (set by tests/CMakeLists.txt).

#include "common/parse.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace pcpda {
namespace {

// --- ParseInt64 / ParseUInt64 / ParseDouble / ParseTick ------------------

TEST(ParseIntTest, AcceptsPlainAndSignedIntegers) {
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_EQ(ParseInt64("-7").value(), -7);
  EXPECT_EQ(ParseInt64("+13").value(), 13);
  EXPECT_EQ(ParseInt64("0").value(), 0);
}

TEST(ParseIntTest, RejectsGarbageSuffixesAndEmpty) {
  EXPECT_FALSE(ParseInt64("abc").ok());
  EXPECT_FALSE(ParseInt64("10x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_FALSE(ParseInt64(" 5").ok());
  EXPECT_FALSE(ParseInt64("5 ").ok());
  EXPECT_FALSE(ParseInt64("1.5").ok());
  EXPECT_FALSE(ParseInt64("0x10").ok());
}

TEST(ParseIntTest, RejectsOverflowAndOutOfRange) {
  EXPECT_FALSE(ParseInt64("99999999999999999999999").ok());
  EXPECT_FALSE(ParseInt64("5", /*min=*/10, /*max=*/20).ok());
  EXPECT_FALSE(ParseInt64("25", /*min=*/10, /*max=*/20).ok());
  EXPECT_EQ(ParseInt64("15", 10, 20).value(), 15);
}

TEST(ParseUIntTest, RejectsNegativeInsteadOfWrapping) {
  // strtoull would silently wrap "-1" to UINT64_MAX.
  EXPECT_FALSE(ParseUInt64("-1").ok());
  EXPECT_EQ(ParseUInt64("18446744073709551615").value(),
            18446744073709551615ull);
  EXPECT_FALSE(ParseUInt64("18446744073709551616").ok());
}

TEST(ParseDoubleTest, AcceptsDecimalsRejectsGarbageAndNonFinite) {
  EXPECT_DOUBLE_EQ(ParseDouble("0.5", 0.0, 1.0).value(), 0.5);
  EXPECT_FALSE(ParseDouble("half", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("0.5x", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("1.5", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("nan", 0.0, 1.0).ok());
  EXPECT_FALSE(ParseDouble("inf", 0.0, 1e308).ok());
}

TEST(ParseTickTest, DefaultsRejectNegativeTicks) {
  EXPECT_EQ(ParseTick("3000").value(), 3000);
  EXPECT_FALSE(ParseTick("-1").ok());
  EXPECT_FALSE(ParseTick("10h").ok());
}

// --- JobsFromEnv ---------------------------------------------------------

class JobsFromEnvTest : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("PCPDA_TEST_JOBS"); }
};

TEST_F(JobsFromEnvTest, UnsetYieldsFallback) {
  unsetenv("PCPDA_TEST_JOBS");
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 4), 4);
}

TEST_F(JobsFromEnvTest, InRangeValueIsUsedOutOfRangeFallsBack) {
  setenv("PCPDA_TEST_JOBS", "8", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 1), 8);
  setenv("PCPDA_TEST_JOBS", "1024", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 1), 1024);
  // Out of the sane [1, 1024] range warns and degrades to the fallback.
  setenv("PCPDA_TEST_JOBS", "0", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 2), 2);
  setenv("PCPDA_TEST_JOBS", "999999", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 2), 2);
}

TEST_F(JobsFromEnvTest, GarbageWarnsAndFallsBack) {
  // PCPDA_JOBS=abc used to be atoi'd to 0 workers; now it degrades to
  // the fallback (the warning itself goes to stderr).
  setenv("PCPDA_TEST_JOBS", "abc", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 3), 3);
  setenv("PCPDA_TEST_JOBS", "-2", 1);
  EXPECT_EQ(JobsFromEnv("PCPDA_TEST_JOBS", 3), 3);
}

// --- spawned example binaries: bad numeric flags exit 2 ------------------

#ifdef PCPDA_BINARY_DIR

int RunCli(const std::string& command) {
  const std::string full = std::string(PCPDA_BINARY_DIR "/examples/") +
                           command + " >/dev/null 2>&1";
  const int raw = std::system(full.c_str());
  return WEXITSTATUS(raw);
}

TEST(CliRegressionTest, BatchRejectsNonNumericJobs) {
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --jobs=abc"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --jobs=0"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --horizon=10x"), 2);
  EXPECT_EQ(RunCli("pcpda_batch --dir=. --horizon=-5"), 2);
}

TEST(CliRegressionTest, FuzzRejectsGarbageNumerics) {
  EXPECT_EQ(RunCli("pcpda_fuzz --iters=abc"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --seed=-1"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --fault-prob=1.5"), 2);
  EXPECT_EQ(RunCli("pcpda_fuzz --jobs=99999999999999999999"), 2);
}

TEST(CliRegressionTest, CampaignRejectsGarbageNumerics) {
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --horizon=-5"), 2);
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --scenarios=lots"), 2);
  EXPECT_EQ(RunCli("pcpda_campaign --out=/tmp/x --shard=one"), 2);
  // Flags that name no campaign field are usage errors.
  for (const char* flag :
       {"--worker", "--workers=2", "--stall-ms=5", "--chaos-seed=1",
        "--job-first=0", "--heartbeat-fd=5"}) {
    EXPECT_EQ(RunCli(std::string("pcpda_campaign --out=/tmp/x ") + flag), 2)
        << flag;
  }
}

TEST(CliRegressionTest, CampaignSuperviseComposesWithShardAndStopAfter) {
  // The restart loop runs the command line as given, so --shard and
  // --stop-after mean what they mean without it.
  char dir[] = "/tmp/pcpda_cli_supervise_XXXXXX";
  ASSERT_NE(::mkdtemp(dir), nullptr);
  const std::string grid =
      std::string("pcpda_campaign --out=") + dir +
      " --scenarios=2 --utils=0.3 --protocols=PCP-DA,PCP --horizon=200"
      " --shards=2 --jobs=1 --no-fsync --supervise";
  EXPECT_EQ(RunCli(grid + " --shard=0"), 1)
      << "shard 1 still pending: a clean partial run";
  EXPECT_EQ(RunCli(grid + " --shard=1 --stop-after=1"), 1);
  EXPECT_EQ(RunCli(grid), 0) << "the resumed campaign completes";
  std::system((std::string("rm -rf ") + dir).c_str());
}

// run_scenario's full stdout (per-protocol Gantt, metrics, serializable
// and audit lines) and exit code on every shipped scenario, pinned byte
// for byte against tests/golden/run_scenario/<name>.txt.
TEST(CliRegressionTest, RunScenarioMatchesGoldens) {
  for (const char* name : {"avionics", "example1", "example3",
                           "example3_faulty", "example4", "example5"}) {
    SCOPED_TRACE(name);
    const std::string command =
        std::string(PCPDA_BINARY_DIR "/examples/run_scenario "
                    PCPDA_SOURCE_DIR "/scenarios/") +
        name + ".scn 2>/dev/null";
    FILE* pipe = popen(command.c_str(), "r");
    ASSERT_NE(pipe, nullptr);
    std::string out;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
      out.append(buffer, n);
    }
    EXPECT_EQ(WEXITSTATUS(pclose(pipe)), 0);
    std::ifstream golden(std::string(PCPDA_SOURCE_DIR
                                     "/tests/golden/run_scenario/") +
                         name + ".txt");
    ASSERT_TRUE(golden.good());
    std::ostringstream expected;
    expected << golden.rdbuf();
    EXPECT_EQ(out, expected.str());
  }
}

TEST(CliRegressionTest, RunScenarioRejectsGarbageHorizon) {
  const std::string scn =
      std::string(PCPDA_SOURCE_DIR "/scenarios/example4.scn");
  EXPECT_EQ(RunCli("run_scenario " + scn + " PCP-DA 10x"), 2);
  EXPECT_EQ(
      RunCli("run_scenario " + scn + " PCP-DA 99999999999999999999999"),
      2);
}

#endif  // PCPDA_BINARY_DIR

}  // namespace
}  // namespace pcpda
