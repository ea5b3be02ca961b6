#include <gtest/gtest.h>

#include "common/rng.h"
#include "history/serialization_graph.h"
#include "sim/arrival_schedule.h"
#include "test_util.h"

namespace pcpda {
namespace {

TransactionSet TwoSpecs() {
  TransactionSpec a{.name = "A", .period = 10, .body = {Compute(1)}};
  TransactionSpec b{.name = "B",
                    .period = 25,
                    .offset = 3,
                    .body = {Compute(2)}};
  auto set = TransactionSet::Create({a, b});
  return std::move(set).value();
}

TEST(ArrivalScheduleTest, PeriodicMatchesCalendar) {
  const TransactionSet set = TwoSpecs();
  const ArrivalSchedule schedule = ArrivalSchedule::Periodic(set, 50);
  const ArrivalCalendar calendar(&set);
  EXPECT_EQ(schedule.arrivals(), calendar.Before(50));
  EXPECT_EQ(schedule.CountFor(0), 5);
  EXPECT_EQ(schedule.CountFor(1), 2);
}

TEST(ArrivalScheduleTest, AtQueriesMatchList) {
  const TransactionSet set = TwoSpecs();
  const ArrivalSchedule schedule = ArrivalSchedule::Periodic(set, 50);
  std::size_t total = 0;
  for (Tick t = 0; t < 50; ++t) total += schedule.At(t).size();
  EXPECT_EQ(total, schedule.arrivals().size());
  EXPECT_EQ(schedule.At(3).size(), 1u);
  EXPECT_TRUE(schedule.At(4).empty());
}

TEST(ArrivalScheduleTest, SporadicRespectsMinimumInterArrival) {
  const TransactionSet set = TwoSpecs();
  Rng rng(5);
  const ArrivalSchedule schedule =
      ArrivalSchedule::Sporadic(set, 500, 0.5, rng);
  Tick previous_a = -1;
  for (const Arrival& arrival : schedule.arrivals()) {
    if (arrival.spec != 0) continue;
    if (previous_a >= 0) {
      const Tick gap = arrival.tick - previous_a;
      EXPECT_GE(gap, 10);
      EXPECT_LE(gap, 15);
    }
    previous_a = arrival.tick;
  }
  // Fewer or equal arrivals than strictly periodic.
  EXPECT_LE(schedule.CountFor(0), 50);
  EXPECT_GE(schedule.CountFor(0), 500 / 15);
}

TEST(ArrivalScheduleTest, SporadicZeroJitterIsPeriodic) {
  const TransactionSet set = TwoSpecs();
  Rng rng(5);
  const ArrivalSchedule sporadic =
      ArrivalSchedule::Sporadic(set, 100, 0.0, rng);
  const ArrivalSchedule periodic = ArrivalSchedule::Periodic(set, 100);
  EXPECT_EQ(sporadic.arrivals(), periodic.arrivals());
}

TEST(ArrivalScheduleTest, PoissonMeanRateTracksLoad) {
  TransactionSpec a{.name = "A", .period = 20, .body = {Compute(1)}};
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  Rng rng(9);
  const Tick horizon = 200000;
  const ArrivalSchedule low =
      ArrivalSchedule::Poisson(*set, horizon, 0.5, rng);
  const ArrivalSchedule high =
      ArrivalSchedule::Poisson(*set, horizon, 2.0, rng);
  // Expected counts: horizon/period*load = 5000 and 20000.
  EXPECT_NEAR(low.CountFor(0), 5000, 500);
  EXPECT_NEAR(high.CountFor(0), 20000, 2000);
}

TEST(ArrivalScheduleTest, InstancesNumberedPerSpec) {
  const TransactionSet set = TwoSpecs();
  Rng rng(11);
  const ArrivalSchedule schedule =
      ArrivalSchedule::Poisson(set, 300, 1.0, rng);
  std::map<SpecId, int> expected;
  for (const Arrival& arrival : schedule.arrivals()) {
    EXPECT_EQ(arrival.instance, expected[arrival.spec]++);
  }
}

TEST(ArrivalScheduleTest, FromArrivalsValidates) {
  const TransactionSet set = TwoSpecs();
  EXPECT_TRUE(
      ArrivalSchedule::FromArrivals(set, {{0, 0, 0}, {5, 1, 0}}).ok());
  EXPECT_FALSE(
      ArrivalSchedule::FromArrivals(set, {{5, 0, 0}, {0, 1, 0}}).ok());
  EXPECT_FALSE(ArrivalSchedule::FromArrivals(set, {{-1, 0, 0}}).ok());
  EXPECT_FALSE(ArrivalSchedule::FromArrivals(set, {{0, 7, 0}}).ok());
}

TEST(ArrivalScheduleTest, FromArrivalsRenumbersInstances) {
  const TransactionSet set = TwoSpecs();
  auto schedule = ArrivalSchedule::FromArrivals(
      set, {{0, 0, 99}, {4, 0, 99}, {4, 1, 99}});
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(schedule->arrivals()[0].instance, 0);
  EXPECT_EQ(schedule->arrivals()[1].instance, 1);
  EXPECT_EQ(schedule->arrivals()[2].instance, 0);
}

// --- Calendar arrival semantics ----------------------------------------------

TransactionSet BoundarySpecs() {
  // Periodic A (offset 0), periodic B (offset 3), one-shot Once (offset 7).
  TransactionSpec a{.name = "A", .period = 10, .body = {Compute(1)}};
  TransactionSpec b{.name = "B",
                    .period = 25,
                    .offset = 3,
                    .body = {Compute(2)}};
  TransactionSpec once{
      .name = "Once", .period = 0, .offset = 7, .body = {Compute(1)}};
  auto set = TransactionSet::Create({a, b, once});
  return std::move(set).value();
}

TEST(ArrivalCalendarTest, HorizonBoundaryIsHalfOpen) {
  const TransactionSet set = BoundarySpecs();
  const ArrivalCalendar calendar(&set);
  // A releases at 0, 10, 20, ...: the release at exactly the horizon is
  // out, the one at horizon-1 is in.
  EXPECT_EQ(calendar.CountBefore(0, 10), 1);
  EXPECT_EQ(calendar.CountBefore(0, 11), 2);
  // B's offset equals the horizon: its first release has not happened yet.
  EXPECT_EQ(calendar.CountBefore(1, 3), 0);
  EXPECT_EQ(calendar.CountBefore(1, 4), 1);
  // One-shot: exactly one release ever, subject to the same boundary.
  EXPECT_EQ(calendar.CountBefore(2, 7), 0);
  EXPECT_EQ(calendar.CountBefore(2, 8), 1);
  EXPECT_EQ(calendar.CountBefore(2, 1000), 1);
  // Degenerate horizon.
  EXPECT_TRUE(calendar.Before(0).empty());
  EXPECT_EQ(calendar.CountBefore(0, 0), 0);
}

TEST(ArrivalCalendarTest, BeforeAtAndCountBeforeAgree) {
  const TransactionSet set = BoundarySpecs();
  const ArrivalCalendar calendar(&set);
  const Tick horizon = 53;
  const std::vector<Arrival> all = calendar.Before(horizon);
  std::vector<Arrival> from_at;
  for (Tick t = 0; t < horizon; ++t) {
    for (const Arrival& arrival : calendar.At(t)) from_at.push_back(arrival);
  }
  EXPECT_EQ(all, from_at);
  for (SpecId i = 0; i < set.size(); ++i) {
    int in_list = 0;
    for (const Arrival& arrival : all) {
      if (arrival.spec == i) ++in_list;
    }
    EXPECT_EQ(calendar.CountBefore(i, horizon), in_list) << "spec " << i;
  }
}

TEST(ArrivalCalendarTest, CursorMatchesBeforeAndOrdersSimultaneous) {
  // Equal periods: both specs release together every 10 ticks.
  TransactionSpec a{.name = "A", .period = 10, .body = {Compute(1)}};
  TransactionSpec b{.name = "B", .period = 10, .body = {Compute(1)}};
  auto set = TransactionSet::Create({a, b});
  ASSERT_TRUE(set.ok());
  const ArrivalCalendar calendar(&*set);
  ArrivalCalendar::Cursor cursor = calendar.MakeCursor();
  std::vector<Arrival> walked;
  for (Tick next = cursor.NextTick(); next != kNoTick && next < 35;
       next = cursor.NextTick()) {
    // PopAt on an arrival-free tick in between is a no-op.
    if (next > 0) {
      const std::size_t before = walked.size();
      cursor.PopAt(next - 1, walked);
      EXPECT_EQ(walked.size(), before);
    }
    cursor.PopAt(next, walked);
  }
  EXPECT_EQ(walked, calendar.Before(35));
  // Simultaneous releases come out in spec-id (priority) order.
  ASSERT_EQ(walked.size(), 8u);
  for (std::size_t i = 0; i + 1 < walked.size(); i += 2) {
    EXPECT_EQ(walked[i].tick, walked[i + 1].tick);
    EXPECT_EQ(walked[i].spec, 0);
    EXPECT_EQ(walked[i + 1].spec, 1);
  }
}

TEST(ArrivalCalendarTest, CursorExhaustsOneShots) {
  TransactionSpec once{
      .name = "Once", .period = 0, .offset = 4, .body = {Compute(1)}};
  auto set = TransactionSet::Create({once});
  ASSERT_TRUE(set.ok());
  ArrivalCalendar::Cursor cursor = ArrivalCalendar(&*set).MakeCursor();
  EXPECT_EQ(cursor.NextTick(), 4);
  std::vector<Arrival> due;
  cursor.PopAt(4, due);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0], (Arrival{4, 0, 0}));
  EXPECT_EQ(cursor.NextTick(), kNoTick);
  cursor.PopAt(5, due);
  EXPECT_EQ(due.size(), 1u);
}

// --- Simulator integration ---------------------------------------------------

TEST(ArrivalScheduleTest, SimulatorUsesOverride) {
  TransactionSpec a{.name = "A", .period = 10, .body = {Compute(2)}};
  auto set = TransactionSet::Create({a});
  ASSERT_TRUE(set.ok());
  auto schedule =
      ArrivalSchedule::FromArrivals(*set, {{2, 0, 0}, {7, 0, 0}});
  ASSERT_TRUE(schedule.ok());
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 20;
  options.arrival_schedule = &*schedule;
  Simulator sim(&*set, protocol.get(), options);
  const SimResult result = sim.Run();
  // Exactly the two trace arrivals, not the periodic calendar's two at
  // 0 and 10.
  EXPECT_EQ(result.metrics.per_spec[0].released, 2);
  const auto arrivals = result.trace.EventsOfKind(TraceKind::kArrival);
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0].tick, 2);
  EXPECT_EQ(arrivals[1].tick, 7);
}

TEST(ArrivalScheduleTest, OverloadedPoissonRunStaysSerializable) {
  TransactionSpec a{.name = "A", .period = 8, .body = {Read(0), Write(1)}};
  TransactionSpec b{.name = "B",
                    .period = 16,
                    .body = {Read(1), Write(0), Compute(2)}};
  auto set = TransactionSet::Create({a, b});
  ASSERT_TRUE(set.ok());
  Rng rng(3);
  const ArrivalSchedule schedule =
      ArrivalSchedule::Poisson(*set, 500, 1.5, rng);
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = 500;
  options.arrival_schedule = &schedule;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  Simulator sim(&*set, protocol.get(), options);
  const SimResult result = sim.Run();
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_GT(result.metrics.TotalCommitted(), 0);
}

}  // namespace
}  // namespace pcpda
