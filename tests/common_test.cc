#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/types.h"

namespace pcpda {
namespace {

// --- Priority ---------------------------------------------------------

TEST(PriorityTest, DummyIsLowerThanEverything) {
  EXPECT_LT(Priority::Dummy(), Priority(0));
  EXPECT_LT(Priority::Dummy(), Priority(-100));
  EXPECT_TRUE(Priority::Dummy().is_dummy());
  EXPECT_FALSE(Priority(0).is_dummy());
}

TEST(PriorityTest, HigherLevelComparesHigher) {
  EXPECT_GT(Priority(3), Priority(2));
  EXPECT_EQ(Priority(2), Priority(2));
  EXPECT_LE(Priority(1), Priority(2));
}

TEST(PriorityTest, MaxPicksLarger) {
  EXPECT_EQ(Max(Priority(1), Priority(5)), Priority(5));
  EXPECT_EQ(Max(Priority(5), Priority(1)), Priority(5));
  EXPECT_EQ(Max(Priority::Dummy(), Priority(-3)), Priority(-3));
}

TEST(PriorityTest, SpecIndexMapping) {
  // T_1 (index 0) gets the highest priority.
  EXPECT_GT(PriorityForSpecIndex(0, 4), PriorityForSpecIndex(1, 4));
  EXPECT_GT(PriorityForSpecIndex(2, 4), PriorityForSpecIndex(3, 4));
  EXPECT_GT(PriorityForSpecIndex(3, 4), Priority::Dummy());
}

// --- Status -----------------------------------------------------------

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, CarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad period");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad period");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad period");
}

TEST(StatusTest, FactoryCodes) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusOrTest, HoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
}

TEST(StatusOrTest, HoldsError) {
  StatusOr<int> v = Status::NotFound("missing");
  ASSERT_FALSE(v.ok());
  EXPECT_EQ(v.status().code(), StatusCode::kNotFound);
}

// --- Rng --------------------------------------------------------------

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformInt(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformIntSingleton) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyFair) {
  Rng rng(19);
  int heads = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.Bernoulli(0.5)) ++heads;
  }
  EXPECT_GT(heads, 4500);
  EXPECT_LT(heads, 5500);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  for (int round = 0; round < 50; ++round) {
    const auto sample = rng.SampleWithoutReplacement(20, 8);
    std::set<std::int64_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 8u);
    for (std::int64_t v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 20);
    }
  }
}

TEST(RngTest, SampleFullRange) {
  Rng rng(29);
  const auto sample = rng.SampleWithoutReplacement(5, 5);
  std::set<std::int64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  rng.Shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 6u);
}

TEST(RngTest, ShuffleHandlesDegenerateSizes) {
  Rng rng(37);
  std::vector<int> empty;
  rng.Shuffle(empty);
  EXPECT_TRUE(empty.empty());
  std::vector<int> one{42};
  rng.Shuffle(one);
  EXPECT_EQ(one, std::vector<int>{42});
  // Neither call may consume entropy: the stream is position-sensitive
  // and a draw on a 0/1-element shuffle would shift every later value.
  Rng untouched(37);
  EXPECT_EQ(rng.Next(), untouched.Next());
}

TEST(RngTest, UniformIntFullInt64Range) {
  // lo..hi spanning the whole domain must not overflow (hi - lo + 1
  // wraps to 0) and must be able to produce both signs.
  Rng rng(41);
  bool saw_negative = false, saw_positive = false;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.UniformInt(
        std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::max());
    saw_negative |= v < 0;
    saw_positive |= v > 0;
  }
  EXPECT_TRUE(saw_negative);
  EXPECT_TRUE(saw_positive);
}

TEST(RngTest, UniformIntHalfOpenDomainBoundaries) {
  // Intervals wider than INT64_MAX exercise the unsigned span path.
  Rng rng(43);
  const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
  for (int i = 0; i < 200; ++i) {
    const std::int64_t v = rng.UniformInt(lo, 0);
    EXPECT_LE(v, 0);
  }
  EXPECT_EQ(rng.UniformInt(lo, lo), lo);
  const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
  EXPECT_EQ(rng.UniformInt(hi, hi), hi);
}

TEST(RngTest, GoldenSequencePinsGenerator) {
  // Seed 42's opening xoshiro256** outputs. Every stored scenario seed,
  // golden trace, and fuzz corpus entry depends on this exact stream —
  // a change here invalidates all of them, so it must be deliberate.
  Rng rng(42);
  const std::uint64_t expected[] = {
      0x15780b2e0c2ec716ULL, 0x6104d9866d113a7eULL,
      0xae17533239e499a1ULL, 0xecb8ad4703b360a1ULL,
      0xfde6dc7fe2ec5e64ULL, 0xc50da53101795238ULL,
      0xb82154855a65ddb2ULL, 0xd99a2743ebe60087ULL,
  };
  for (const std::uint64_t want : expected) EXPECT_EQ(rng.Next(), want);

  Rng bounded(42);
  EXPECT_EQ(bounded.UniformInt(0, 99), 42);
  EXPECT_EQ(bounded.UniformInt(0, 99), 2);
  EXPECT_EQ(bounded.UniformInt(0, 99), 9);
  EXPECT_EQ(bounded.UniformInt(0, 99), 93);
}

// --- Strings ----------------------------------------------------------

TEST(StringsTest, StrFormatBasics) {
  EXPECT_EQ(StrFormat("x=%d y=%s", 3, "ab"), "x=3 y=ab");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(Join({"a", "b", "c"}, ","), "a,b,c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"only"}, ","), "only");
}

TEST(StringsTest, Padding) {
  EXPECT_EQ(PadRight("ab", 5), "ab   ");
  EXPECT_EQ(PadLeft("ab", 5), "   ab");
  EXPECT_EQ(PadRight("abcdef", 3), "abcdef");
}

// --- JsonWriter -------------------------------------------------------------

/// `value` written as one JSON string.
std::string Quoted(const std::string& value) {
  JsonWriter json;
  json.String(value);
  return json.Finish();
}

TEST(JsonWriterTest, EscapesStrings) {
  EXPECT_EQ(Quoted("plain"), "\"plain\"");
  EXPECT_EQ(Quoted("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(Quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(Quoted("l1\nl2\tx\ry"), "\"l1\\nl2\\tx\\ry\"");
  EXPECT_EQ(Quoted(std::string("nul\0bell\x07", 9)),
            "\"nul\\u0000bell\\u0007\"");
  EXPECT_EQ(Quoted("\x1f"), "\"\\u001f\"");
  // Bytes >= 0x80 (UTF-8 sequences) pass through unchanged.
  EXPECT_EQ(Quoted("caf\xc3\xa9 \x80\xff"), "\"caf\xc3\xa9 \x80\xff\"");
}

TEST(JsonWriterTest, KeysAreEscapedToo) {
  JsonWriter json;
  json.BeginObject(JsonLayout::kCompact).Key("a\"b").Int(1).End();
  EXPECT_EQ(json.Finish(), "{\"a\\\"b\":1}");
}

TEST(JsonWriterTest, ScalarValues) {
  JsonWriter json;
  json.BeginArray(JsonLayout::kInline)
      .Int(-7)
      .Int(INT64_MIN)
      .Uint(UINT64_MAX)
      .Double(0.6, "%g")
      .Double(0.5, "%.6f")
      .Double(1e300, "%.6f")
      .Double(std::nan(""), "%g")
      .Double(-HUGE_VAL, "%g")
      .Bool(true)
      .Bool(false)
      .Null()
      .End();
  EXPECT_EQ(json.Finish(),
            "[-7, -9223372036854775808, 18446744073709551615, 0.6, "
            "0.500000, " +
                StrFormat("%.6f", 1e300) + ", null, null, true, false, null]");
}

/// One document with a nested object, an empty array and an array of
/// objects, opened with `layout` at the top.
std::string Sample(JsonLayout layout) {
  JsonWriter json;
  json.BeginObject(layout)
      .Key("name").String("x")
      .Key("empty").BeginArray(layout).End()
      .Key("rows").BeginArray(layout);
  for (int i = 0; i < 2; ++i) {
    json.BeginObject(JsonLayout::kInline).Key("i").Int(i).End();
  }
  json.End().End();
  return json.Finish();
}

TEST(JsonWriterTest, ThreeLayouts) {
  EXPECT_EQ(Sample(JsonLayout::kCompact),
            "{\"name\":\"x\",\"empty\":[],\"rows\":[{\"i\":0},{\"i\":1}]}");
  EXPECT_EQ(Sample(JsonLayout::kInline),
            "{\"name\": \"x\", \"empty\": [], "
            "\"rows\": [{\"i\": 0}, {\"i\": 1}]}");
  EXPECT_EQ(Sample(JsonLayout::kBlock),
            "{\n"
            "  \"name\": \"x\",\n"
            "  \"empty\": [],\n"
            "  \"rows\": [\n"
            "    {\"i\": 0},\n"
            "    {\"i\": 1}\n"
            "  ]\n"
            "}");
}

TEST(JsonWriterTest, ABlockInsideALineTakesTheLinesLayout) {
  JsonWriter json;
  json.BeginArray(JsonLayout::kInline)
      .BeginObject(JsonLayout::kBlock).Key("k").Int(1).End()
      .BeginArray(JsonLayout::kCompact).Int(1).Int(2).End()
      .End();
  EXPECT_EQ(json.Finish(), "[{\"k\": 1}, [1,2]]");
}

TEST(JsonWriterTest, FinishLeavesTheWriterEmpty) {
  JsonWriter json;
  json.BeginArray(JsonLayout::kBlock).End();
  EXPECT_EQ(json.Finish(), "[]");
  json.Int(3);
  EXPECT_EQ(json.Finish(), "3");
}

TEST(JsonWriterDeathTest, MisuseIsACheckFailure) {
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginObject(JsonLayout::kCompact).Int(1);
      },
      "needs a Key");
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginArray(JsonLayout::kCompact).Key("k");
      },
      "Key belongs in an object");
  EXPECT_DEATH(
      {
        JsonWriter json;
        json.BeginArray(JsonLayout::kCompact);
        json.Finish();
      },
      "Finish with a value open");
}

TEST(StringsTest, PriorityDebugString) {
  EXPECT_EQ(Priority::Dummy().DebugString(), "dummy");
  EXPECT_EQ(Priority(4).DebugString(), "prio(4)");
}

}  // namespace
}  // namespace pcpda
