#include <gtest/gtest.h>

#include "common/rng.h"
#include "test_util.h"
#include "trace/csv.h"
#include "trace/gantt.h"
#include "trace/trace.h"

namespace pcpda {
namespace {

// --- Trace container ---------------------------------------------------

TEST(TraceTest, EventQueries) {
  Trace trace;
  TraceEvent arrival;
  arrival.tick = 0;
  arrival.kind = TraceKind::kArrival;
  arrival.job = 1;
  arrival.spec = 0;
  trace.AddEvent(arrival);
  TraceEvent commit = arrival;
  commit.tick = 5;
  commit.kind = TraceKind::kCommit;
  trace.AddEvent(commit);

  EXPECT_EQ(trace.EventsOfKind(TraceKind::kArrival).size(), 1u);
  EXPECT_EQ(trace.EventsOfKind(TraceKind::kCommit, 0).size(), 1u);
  EXPECT_TRUE(trace.EventsOfKind(TraceKind::kCommit, 1).empty());
  ASSERT_TRUE(FirstEvent(trace, TraceKind::kCommit, 1).has_value());
  EXPECT_EQ(FirstEvent(trace, TraceKind::kCommit, 1)->tick, 5);
  EXPECT_FALSE(FirstEvent(trace, TraceKind::kRestart, 1).has_value());
}

TEST(TraceTest, TickQueries) {
  Trace trace;
  for (Tick t = 0; t < 4; ++t) {
    TickRecord record;
    record.running_job = t < 2 ? 7 : kInvalidJob;
    record.running_spec = t < 2 ? 1 : kInvalidSpec;
    record.ceiling = t == 1 ? Priority(3) : Priority::Dummy();
    if (t == 2) {
      BlockedSample sample;
      sample.job = 9;
      sample.spec = 0;
      record.blocked.push_back(sample);
    }
    trace.AddTicks(t, 1, record);
  }
  EXPECT_EQ(RunningSpecAt(trace, 0), 1);
  EXPECT_EQ(RunningSpecAt(trace, 3), kInvalidSpec);
  EXPECT_EQ(RunningSpecAt(trace, 99), kInvalidSpec);
  EXPECT_EQ(RunningTicks(trace, 1), 2);
  EXPECT_EQ(BlockedTicks(trace, 9), 1);
  EXPECT_EQ(BlockedTicks(trace, 7), 0);
  EXPECT_EQ(MaxCeiling(trace), Priority(3));
}

TEST(TraceTest, CapacityBoundsRetainedWindow) {
  Trace trace;
  trace.SetCapacity(4);
  for (Tick t = 0; t < 20; ++t) {
    TraceEvent event;
    event.tick = t;
    event.kind = TraceKind::kArrival;
    event.job = t;
    trace.AddEvent(event);
    TickRecord record;
    record.running_spec = static_cast<SpecId>(t % 3);
    trace.AddTicks(t, 1, record);
  }
  // Amortized compaction keeps at most 2x the capacity resident, the
  // newest entries survive, and every eviction is counted.
  EXPECT_LE(trace.events().size(), 8u);
  EXPECT_GE(trace.events().size(), 4u);
  EXPECT_EQ(trace.events().back().tick, 19);
  EXPECT_EQ(trace.dropped_events() +
                static_cast<std::int64_t>(trace.events().size()),
            20);
  EXPECT_EQ(trace.dropped_ticks() + trace.tick_count(), 20);
  // Tick lookups answer over the retained window, offset-aware.
  const Tick first = trace.first_tick();
  EXPECT_GT(first, 0);
  EXPECT_EQ(RunningSpecAt(trace, first - 1), kInvalidSpec);
  EXPECT_EQ(RunningSpecAt(trace, 19), static_cast<SpecId>(19 % 3));
}

TEST(TraceTest, ZeroCapacityKeepsEverything) {
  Trace trace;
  trace.SetCapacity(0);
  for (Tick t = 0; t < 50; ++t) {
    trace.AddTicks(t, 1, TickRecord{});
  }
  EXPECT_EQ(trace.tick_count(), 50);
  EXPECT_EQ(trace.dropped_ticks(), 0);
}

TEST(TraceTest, StretchAppendsEqualTickByTickAppends) {
  // Equal neighbours merge into one span, and a capacity-bounded window
  // evolves by ticks: appending a stretch at once, extending the last
  // span, or appending tick by tick all give the same trace.
  Rng rng(19);
  for (std::size_t capacity : {0u, 1u, 3u, 8u}) {
    for (int round = 0; round < 20; ++round) {
      Trace stretches;
      Trace singles;
      stretches.SetCapacity(capacity);
      singles.SetCapacity(capacity);
      Tick tick = 0;
      for (int k = 0; k < 12; ++k) {
        TickRecord record;
        record.running_spec = static_cast<SpecId>(rng.UniformInt(0, 1));
        const Tick length = rng.UniformInt(1, 9);
        if (k > 0 && rng.Bernoulli(0.3)) {
          stretches.ExtendLastSpan(length);
          record = singles.spans().back().record;
        } else {
          stretches.AddTicks(tick, length, record);
        }
        for (Tick t = tick; t < tick + length; ++t) {
          singles.AddTicks(t, 1, record);
        }
        tick += length;
      }
      EXPECT_TRUE(stretches == singles) << "capacity " << capacity;
      EXPECT_EQ(singles.dropped_ticks() + singles.tick_count(), tick);
      if (capacity > 0) {
        EXPECT_LT(singles.tick_count(), static_cast<Tick>(2 * capacity));
      }
      for (std::size_t i = 1; i < singles.spans().size(); ++i) {
        EXPECT_FALSE(singles.spans()[i - 1].record ==
                     singles.spans()[i].record);
      }
    }
  }
}

TEST(TraceTest, BoundedTraceLeavesSimulationUnchanged) {
  // The ring drops old records but must not perturb the run itself:
  // metrics from a bounded run match the unbounded run exactly.
  const PaperExample example = Example3();
  const TransactionSet& set = example.set;
  auto run = [&set](std::size_t cap) {
    auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
    SimulatorOptions options;
    options.horizon = 200;
    options.max_trace_events = cap;
    Simulator sim(PlanOf(set), protocol.get(), options);
    return sim.Run();
  };
  const SimResult unbounded = run(0);
  const SimResult bounded = run(16);
  EXPECT_EQ(unbounded.metrics.DebugString(set),
            bounded.metrics.DebugString(set));
  EXPECT_EQ(unbounded.trace.dropped_events(), 0);
  EXPECT_GT(bounded.trace.dropped_events(), 0);
  EXPECT_LE(bounded.trace.events().size(), 32u);
  EXPECT_LE(bounded.trace.tick_count(), 32);
  // The retained suffix of the bounded trace equals the tail of the full
  // trace.
  const auto& full = unbounded.trace.events();
  const auto& kept = bounded.trace.events();
  ASSERT_LE(kept.size(), full.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].DebugString(),
              full[full.size() - kept.size() + i].DebugString());
  }
}

TEST(TraceTest, EventDebugString) {
  TraceEvent e;
  e.tick = 3;
  e.kind = TraceKind::kBlock;
  e.job = 2;
  e.spec = 1;
  e.item = 4;
  e.mode = LockMode::kWrite;
  e.reason = BlockReason::kCeiling;
  e.others = {5, 6};
  e.note = "LC-denied";
  const std::string s = e.DebugString();
  EXPECT_NE(s.find("block"), std::string::npos);
  EXPECT_NE(s.find("d4"), std::string::npos);
  EXPECT_NE(s.find("ceiling"), std::string::npos);
  EXPECT_NE(s.find("LC-denied"), std::string::npos);
}

// --- Gantt -----------------------------------------------------------------

TEST(GanttTest, Example4PcpDaChart) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  const std::string chart = RenderGantt(example.set, result.trace);
  // Every transaction row present.
  for (SpecId i = 0; i < example.set.size(); ++i) {
    EXPECT_NE(chart.find(example.set.spec(i).name), std::string::npos);
  }
  EXPECT_NE(chart.find("ceiling"), std::string::npos);
  EXPECT_NE(chart.find("legend"), std::string::npos);
  // T4 row starts with a read tick at t=0.
  const auto t4_pos = chart.find("T4");
  ASSERT_NE(t4_pos, std::string::npos);
  const std::string t4_row = chart.substr(t4_pos, 30);
  EXPECT_EQ(t4_row[t4_row.find('|') + 1], 'r');
}

TEST(GanttTest, BlockedShownAsB) {
  const PaperExample example = Example3();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  const std::string chart = RenderGantt(example.set, result.trace);
  // T1 is blocked t=1..5 under RW-PCP: its row contains 'B'.
  const auto t1_pos = chart.find("T1");
  const auto line_end = chart.find('\n', t1_pos);
  const std::string t1_row = chart.substr(t1_pos, line_end - t1_pos);
  EXPECT_NE(t1_row.find('B'), std::string::npos) << chart;
  EXPECT_NE(t1_row.find('!'), std::string::npos) << chart;  // miss marker
}

TEST(GanttTest, OptionsDisableRows) {
  const PaperExample example = Example1();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  GanttOptions options;
  options.show_ceiling = false;
  options.show_legend = false;
  const std::string chart = RenderGantt(example.set, result.trace, options);
  EXPECT_EQ(chart.find("ceiling"), std::string::npos);
  EXPECT_EQ(chart.find("legend"), std::string::npos);
}

// A capacity-bounded trace keeps only its most recent ticks, so its first
// retained tick is past 0; the chart spans exactly that window.
TEST(GanttTest, BoundedTraceRendersItsTickWindow) {
  const PaperExample example = Example3();
  auto run = [&example](std::size_t cap) {
    auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
    SimulatorOptions options;
    options.horizon = 200;
    options.max_trace_events = cap;
    Simulator sim(PlanOf(example.set), protocol.get(), options);
    return sim.Run();
  };
  const SimResult full = run(0);
  const SimResult bounded = run(8);
  const Tick first = bounded.trace.first_tick();
  ASSERT_GT(first, 0);
  ASSERT_EQ(bounded.trace.end_tick(), 200);

  auto rows = [](const std::string& chart) {
    std::vector<std::string> lines;
    std::size_t at = 0;
    while (at <= chart.size()) {
      const std::size_t nl = std::min(chart.find('\n', at), chart.size());
      lines.push_back(chart.substr(at, nl - at));
      at = nl + 1;
    }
    return lines;
  };
  const std::vector<std::string> kept =
      rows(RenderGantt(example.set, bounded.trace));
  const std::vector<std::string> whole =
      rows(RenderGantt(example.set, full.trace));
  ASSERT_EQ(kept.size(), whole.size());
  const std::size_t columns = static_cast<std::size_t>(200 - first) + 1;
  // The ruler labels absolute ticks: the window's columns of the full
  // chart's ruler.
  EXPECT_EQ(kept[0].substr(9),
            whole[0].substr(9 + static_cast<std::size_t>(first), columns));
  for (std::size_t i = 1; i + 1 < kept.size(); ++i) {
    const std::size_t bar = kept[i].find('|');
    ASSERT_NE(bar, std::string::npos) << kept[i];
    if (kept[i].rfind("ceiling", 0) == 0) {
      // The ceiling row comes from the spans alone: the full chart's
      // ceiling over the same ticks.
      EXPECT_EQ(kept[i].substr(bar + 1),
                whole[i].substr(bar + 1 + static_cast<std::size_t>(first),
                                columns - 1));
    } else {
      EXPECT_EQ(kept[i].size() - bar - 1, columns) << kept[i];
    }
  }
}

// --- CSV -----------------------------------------------------------------

TEST(CsvTest, EventsCsvWellFormed) {
  const PaperExample example = Example1();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  const std::string csv = TraceEventsCsv(result.trace);
  EXPECT_EQ(csv.find("tick,kind,job"), 0u);
  // Header + one line per event.
  const std::size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, result.trace.events().size() + 1);
}

TEST(CsvTest, ScheduleCsvHasOneRowPerTick) {
  const PaperExample example = Example1();
  const SimResult result = RunExample(example, ProtocolKind::kRwPcp);
  const std::string csv = ScheduleCsv(example.set, result.trace);
  const std::size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<std::size_t>(result.trace.tick_count()) + 1);
  EXPECT_NE(csv.find("T3"), std::string::npos);
}

TEST(CsvTest, MetricsCsvHasOneRowPerSpec) {
  const PaperExample example = Example4();
  const SimResult result = RunExample(example, ProtocolKind::kPcpDa);
  const std::string csv = MetricsCsv(example.set, result.metrics);
  const std::size_t lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(lines, static_cast<std::size_t>(example.set.size()) + 1);
}

}  // namespace
}  // namespace pcpda
