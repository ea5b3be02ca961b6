// Tests for the scenario compilation layer (src/plan/): CompiledPlan
// lowering (ceilings, calendar cursor), the lint gate, and value
// semantics of the shared immutable artifact. That a shared plan runs
// byte-identically to a fresh one is pinned by tests/determinism_test.cc.

#include "plan/compiled_plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "plan/job_arena.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

constexpr char kScenarioText[] = R"(scenario plan
horizon 40
item x
item y
item z

txn T1 period=10
  read x
  write y
end
txn T2 period=20
  write x
  read z
end
)";

Scenario Parse(const char* text = kScenarioText) {
  auto scenario = ParseScenario(text);
  EXPECT_TRUE(scenario.ok()) << scenario.status().ToString();
  return std::move(scenario).value();
}

TEST(CompiledPlanTest, EmptyPlanIsNotOk) {
  CompiledPlan plan;
  EXPECT_FALSE(plan.ok());
}

TEST(CompiledPlanTest, LowersEntitiesAndCeilings) {
  auto plan = CompiledPlan::Compile(Parse());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_TRUE(plan->ok());
  const TransactionSet& set = plan->set();
  EXPECT_EQ(set.size(), 2);
  EXPECT_EQ(set.item_count(), 3);
  EXPECT_EQ(plan->scenario().horizon, 40);

  // Ceilings are precomputed from the same set a fresh build would use.
  const StaticCeilings fresh(set);
  for (ItemId i = 0; i < set.item_count(); ++i) {
    EXPECT_EQ(plan->ceilings().Wceil(i), fresh.Wceil(i));
    EXPECT_EQ(plan->ceilings().Aceil(i), fresh.Aceil(i));
  }
}

TEST(CompiledPlanTest, CursorMatchesFreshCalendar) {
  auto plan = CompiledPlan::Compile(Parse());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ArrivalCalendar fresh(&plan->set());
  ArrivalCalendar::Cursor want = fresh.MakeCursor();
  ArrivalCalendar::Cursor got = plan->MakeCursor();
  for (Tick t = 0; t < plan->scenario().horizon; ++t) {
    std::vector<Arrival> a, b;
    want.PopAt(t, a);
    got.PopAt(t, b);
    ASSERT_EQ(a.size(), b.size()) << "tick " << t;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].spec, b[i].spec) << "tick " << t;
      EXPECT_EQ(a[i].instance, b[i].instance) << "tick " << t;
    }
  }
}

TEST(CompiledPlanTest, LintGateRejectsDirtyScenario) {
  // Parseable but statically wrong: the expected write ceiling holder of
  // x is TL, the actual is TH — a lint error.
  Scenario dirty = Parse(
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
  auto gated = CompiledPlan::Compile(dirty);
  EXPECT_FALSE(gated.ok());
  EXPECT_EQ(gated.status().code(), StatusCode::kInvalidArgument);

  CompileOptions no_lint;
  no_lint.lint = false;
  auto forced = CompiledPlan::Compile(dirty, no_lint);
  EXPECT_TRUE(forced.ok()) << forced.status().ToString();
}

TEST(CompiledPlanTest, CopiesShareTheImmutableArtifact) {
  auto plan = CompiledPlan::Compile(Parse());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  CompiledPlan copy = plan.value();
  EXPECT_TRUE(copy.ok());
  // Shared pimpl: the copies expose the very same lowered tables.
  EXPECT_EQ(&copy.set(), &plan->set());
  EXPECT_EQ(&copy.ceilings(), &plan->ceilings());
}

TEST(CompiledPlanTest, ConvenienceOverloadBuildsScenario) {
  Scenario scenario = Parse();
  auto plan =
      CompiledPlan::Compile("by_parts", scenario.set, /*horizon=*/17);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan->scenario().name, "by_parts");
  EXPECT_EQ(plan->scenario().horizon, 17);
}

// --- JobSlotMap: the dense hot-state arena the simulator runs on --------

TEST(JobSlotMapTest, InsertFindEraseIterateInIdOrder) {
  JobSlotMap<int> map;
  EXPECT_TRUE(map.empty());
  map[5] = 50;
  map[2] = 20;
  map[9] = 90;
  EXPECT_EQ(map.size(), 3u);
  EXPECT_EQ(map.ids(), (std::vector<JobId>{2, 5, 9}));
  EXPECT_TRUE(map.contains(5));
  EXPECT_FALSE(map.contains(4));
  ASSERT_NE(map.find(2), nullptr);
  EXPECT_EQ(*map.find(2), 20);
  EXPECT_EQ(map.find(7), nullptr);
  map.erase(5);
  EXPECT_EQ(map.ids(), (std::vector<JobId>{2, 9}));
  EXPECT_FALSE(map.contains(5));
}

TEST(JobSlotMapTest, ReusedSlotResetsToDefault) {
  JobSlotMap<std::string> map;
  map[3] = "stale";
  map.erase(3);
  // operator[] on a reused slot must behave like std::map: fresh T{}.
  EXPECT_EQ(map[3], "");
}

TEST(JobSlotMapTest, ClearAndSwapKeepContentsConsistent) {
  JobSlotMap<int> a;
  JobSlotMap<int> b;
  a[1] = 10;
  a[4] = 40;
  b[2] = 20;
  a.swap(b);
  EXPECT_EQ(a.ids(), (std::vector<JobId>{2}));
  EXPECT_EQ(b.ids(), (std::vector<JobId>{1, 4}));
  b.clear();
  EXPECT_TRUE(b.empty());
  EXPECT_FALSE(b.contains(1));
}

TEST(JobSlotMapTest, SlidingWindowKeepsCapacityBounded) {
  // Ids issued in order with at most kWindow live at once, the way the
  // simulator retires jobs: the ring reuses slots instead of growing.
  constexpr JobId kIds = 1000000;
  constexpr JobId kWindow = 4;
  JobSlotMap<std::string> map;
  std::size_t max_capacity = 0;
  for (JobId id = 0; id < kIds; ++id) {
    if (id >= kWindow) map.erase(id - kWindow);
    map[id] = "payload";
    max_capacity = std::max(max_capacity, map.capacity());
  }
  EXPECT_LE(max_capacity, 16u);
  EXPECT_EQ(map.ids(), (std::vector<JobId>{kIds - 4, kIds - 3, kIds - 2,
                                           kIds - 1}));
  EXPECT_FALSE(map.contains(kIds - 5));
  EXPECT_EQ(map.at(kIds - 1), "payload");
}

TEST(JobSlotMapTest, OutOfOrderInsertsAfterClearIterateAscending) {
  JobSlotMap<int> map;
  map[3] = 3;
  map[1] = 1;
  map.clear();
  for (JobId id : {40, 7, 23, 0, 15}) map[id] = static_cast<int>(id);
  EXPECT_EQ(map.ids(), (std::vector<JobId>{0, 7, 15, 23, 40}));
  for (JobId id : map.ids()) EXPECT_EQ(map.at(id), id);
  EXPECT_FALSE(map.contains(3));
  EXPECT_FALSE(map.contains(1));
}

TEST(JobSlotMapTest, CollidingInsertGrowsAndKeepsLivePayloads) {
  JobSlotMap<std::string> map;
  for (JobId id = 0; id < 8; ++id) map[id] = "p" + std::to_string(id);
  const std::size_t before = map.capacity();
  ASSERT_EQ(before, 8u);
  // before + 0 maps onto id 0's slot while id 0 is still live.
  map[static_cast<JobId>(before)] = "new";
  EXPECT_GT(map.capacity(), before);
  EXPECT_EQ(map.size(), 9u);
  for (JobId id = 0; id < 8; ++id) {
    ASSERT_TRUE(map.contains(id));
    EXPECT_EQ(map.at(id), "p" + std::to_string(id));
  }
  EXPECT_EQ(map.at(8), "new");
}

}  // namespace
}  // namespace pcpda
