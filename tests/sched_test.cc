#include <gtest/gtest.h>

#include <string>

#include "core/pcp_da.h"
#include "protocols/protocol.h"
#include "sched/inheritance.h"
#include "sched/metrics.h"
#include "sched/scheduler.h"
#include "sched/simulator.h"
#include "sched/wait_graph.h"
#include "txn/job.h"
#include "txn/spec.h"

namespace pcpda {
namespace {

// --- WaitGraph ----------------------------------------------------------

TEST(WaitGraphTest, EmptyHasNoCycle) {
  WaitGraph graph;
  EXPECT_FALSE(graph.FindCycle().has_value());
  EXPECT_FALSE(graph.IsWaiting(1));
  EXPECT_TRUE(graph.waiters().empty());
}

TEST(WaitGraphTest, SetAndClearWaits) {
  WaitGraph graph;
  graph.SetWaits(1, {2, 3});
  EXPECT_TRUE(graph.IsWaiting(1));
  EXPECT_EQ(graph.HoldersBlocking(1), (std::vector<JobId>{2, 3}));
  graph.ClearWaits(1);
  EXPECT_FALSE(graph.IsWaiting(1));
  graph.SetWaits(1, {2});
  graph.SetWaits(1, {});  // empty holders == no wait
  EXPECT_FALSE(graph.IsWaiting(1));
}

TEST(WaitGraphTest, ChainHasNoCycle) {
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.SetWaits(2, {3});
  EXPECT_FALSE(graph.FindCycle().has_value());
}

TEST(WaitGraphTest, TwoCycle) {
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.SetWaits(2, {1});
  auto cycle = graph.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(*cycle, (std::vector<JobId>{1, 2}));
}

TEST(WaitGraphTest, LongerCycleStartsAtSmallestId) {
  WaitGraph graph;
  graph.SetWaits(5, {7});
  graph.SetWaits(7, {3});
  graph.SetWaits(3, {5});
  auto cycle = graph.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->size(), 3u);
  EXPECT_EQ(cycle->front(), 3);
}

TEST(WaitGraphTest, CycleAmongIdsFarFromZero) {
  // Late in a long run only high ids are live; the search may not size
  // anything by the id values themselves.
  constexpr JobId kBase = JobId{1} << 40;
  WaitGraph graph;
  graph.SetWaits(kBase + 9, {kBase + 4});
  graph.SetWaits(kBase + 4, {kBase + 6});
  graph.SetWaits(kBase + 6, {kBase + 9, kBase + 1});
  auto cycle = graph.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(*cycle, (std::vector<JobId>{kBase + 4, kBase + 6, kBase + 9}));
}

TEST(WaitGraphTest, SelfLoopDetected) {
  WaitGraph graph;
  graph.SetWaits(4, {4});
  auto cycle = graph.FindCycle();
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(*cycle, (std::vector<JobId>{4}));
}

TEST(WaitGraphTest, DiamondNoFalsePositive) {
  WaitGraph graph;
  graph.SetWaits(1, {2, 3});
  graph.SetWaits(2, {4});
  graph.SetWaits(3, {4});
  EXPECT_FALSE(graph.FindCycle().has_value());
}

TEST(WaitGraphTest, CycleBesideAcyclicPart) {
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.SetWaits(10, {11});
  graph.SetWaits(11, {10});
  ASSERT_TRUE(graph.FindCycle().has_value());
}

TEST(WaitGraphTest, ClearRemovesEverything) {
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.Clear();
  EXPECT_TRUE(graph.waiters().empty());
  EXPECT_FALSE(graph.FindCycle().has_value());
}

// --- Priority inheritance --------------------------------------------------

/// Running-priority table preloaded with `base`.
JobSlotMap<Priority> Base(
    std::initializer_list<std::pair<JobId, Priority>> base) {
  JobSlotMap<Priority> running;
  for (const auto& [id, priority] : base) running[id] = priority;
  return running;
}

/// Relaxes `running` with the reference fixpoint and expects the
/// simulator's dense fixpoint to reach the same table.
void Relax(JobSlotMap<Priority>& running, const WaitGraph& graph,
           bool enable_inheritance) {
  JobSlotMap<Priority> dense = running;
  ComputeRunningPriorities(running, graph, enable_inheritance);
  if (!enable_inheritance) return;
  ComputeRunningPrioritiesDense(dense, graph);
  ASSERT_EQ(dense.ids(), running.ids());
  for (JobId id : running.ids()) EXPECT_EQ(dense.at(id), running.at(id));
}

TEST(InheritanceTest, NoWaitsKeepsBase) {
  JobSlotMap<Priority> running = Base({{1, Priority(3)}, {2, Priority(1)}});
  WaitGraph graph;
  Relax(running, graph, true);
  EXPECT_EQ(running.at(1), Priority(3));
  EXPECT_EQ(running.at(2), Priority(1));
}

TEST(InheritanceTest, DirectInheritance) {
  JobSlotMap<Priority> running = Base({{1, Priority(3)}, {2, Priority(1)}});
  WaitGraph graph;
  graph.SetWaits(1, {2});  // high waits on low
  Relax(running, graph, true);
  EXPECT_EQ(running.at(2), Priority(3));
  EXPECT_EQ(running.at(1), Priority(3));
}

TEST(InheritanceTest, TransitiveInheritance) {
  JobSlotMap<Priority> running = Base({
      {1, Priority(5)}, {2, Priority(3)}, {3, Priority(1)}});
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.SetWaits(2, {3});
  Relax(running, graph, true);
  EXPECT_EQ(running.at(3), Priority(5));
}

TEST(InheritanceTest, MaxOverMultipleWaiters) {
  JobSlotMap<Priority> running = Base({
      {1, Priority(5)}, {2, Priority(4)}, {3, Priority(1)}});
  WaitGraph graph;
  graph.SetWaits(1, {3});
  graph.SetWaits(2, {3});
  Relax(running, graph, true);
  EXPECT_EQ(running.at(3), Priority(5));
}

TEST(InheritanceTest, LowerWaiterDoesNotLowerHolder) {
  JobSlotMap<Priority> running = Base({{1, Priority(1)}, {2, Priority(4)}});
  WaitGraph graph;
  graph.SetWaits(1, {2});  // low waits on high
  Relax(running, graph, true);
  EXPECT_EQ(running.at(2), Priority(4));
}

TEST(InheritanceTest, DisabledKeepsBase) {
  JobSlotMap<Priority> running = Base({{1, Priority(3)}, {2, Priority(1)}});
  WaitGraph graph;
  graph.SetWaits(1, {2});
  Relax(running, graph, false);
  EXPECT_EQ(running.at(2), Priority(1));
}

TEST(InheritanceTest, CycleConvergesToMax) {
  JobSlotMap<Priority> running = Base({{1, Priority(3)}, {2, Priority(1)}});
  WaitGraph graph;
  graph.SetWaits(1, {2});
  graph.SetWaits(2, {1});
  Relax(running, graph, true);
  EXPECT_EQ(running.at(1), Priority(3));
  EXPECT_EQ(running.at(2), Priority(3));
}

TEST(InheritanceTest, StaleEdgesToDeadJobsIgnored) {
  JobSlotMap<Priority> running = Base({{1, Priority(3)}});
  WaitGraph graph;
  graph.SetWaits(1, {99});  // 99 is not a live job
  graph.SetWaits(98, {1});  // dead waiter
  Relax(running, graph, true);
  EXPECT_EQ(running.at(1), Priority(3));
  EXPECT_EQ(running.size(), 1u);
}

// --- DispatchOrder -----------------------------------------------------

class DispatchOrderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TransactionSpec hi{.name = "hi", .body = {Compute(2)}};
    TransactionSpec lo{.name = "lo", .body = {Compute(2)}};
    auto set = TransactionSet::Create({hi, lo},
                                      PriorityAssignment::kAsListed);
    ASSERT_TRUE(set.ok());
    set_ = std::make_unique<TransactionSet>(std::move(set).value());
  }

  std::unique_ptr<TransactionSet> set_;
};

TEST_F(DispatchOrderTest, HigherRunningPriorityFirst) {
  Job a(0, set_.get(), 1, 0, 0, kNoTick);  // lo spec
  Job b(1, set_.get(), 0, 0, 0, kNoTick);  // hi spec
  std::map<JobId, Priority> running{{0, set_->priority(1)},
                                    {1, set_->priority(0)}};
  const auto order = DispatchOrder({&a, &b}, running);
  EXPECT_EQ(order[0], &b);
  EXPECT_EQ(order[1], &a);
}

TEST_F(DispatchOrderTest, DonorBeforeInheritor) {
  // Both at the inherited (hi) running priority: the job whose BASE is hi
  // (the donor) is considered first.
  Job lo_job(0, set_.get(), 1, 0, 0, kNoTick);
  Job hi_job(1, set_.get(), 0, 0, 0, kNoTick);
  std::map<JobId, Priority> running{{0, set_->priority(0)},
                                    {1, set_->priority(0)}};
  const auto order = DispatchOrder({&lo_job, &hi_job}, running);
  EXPECT_EQ(order[0], &hi_job);
}

TEST_F(DispatchOrderTest, FifoWithinSpec) {
  Job first(0, set_.get(), 0, 0, 0, kNoTick);
  Job second(1, set_.get(), 0, 1, 5, kNoTick);
  std::map<JobId, Priority> running{{0, set_->priority(0)},
                                    {1, set_->priority(0)}};
  const auto order = DispatchOrder({&second, &first}, running);
  EXPECT_EQ(order[0], &first);
}

// --- Job -----------------------------------------------------------------

class JobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TransactionSpec spec{.name = "T",
                         .body = {Read(0), Compute(2), Write(1)}};
    auto set = TransactionSet::Create({spec});
    ASSERT_TRUE(set.ok());
    set_ = std::make_unique<TransactionSet>(std::move(set).value());
  }

  std::unique_ptr<TransactionSet> set_;
};

TEST_F(JobTest, ExecutesThroughBody) {
  Job job(0, set_.get(), 0, 0, 3, 13);
  EXPECT_EQ(job.RemainingWork(), 4);
  EXPECT_EQ(job.current_step().kind, StepKind::kRead);
  EXPECT_TRUE(job.ExecuteTick());  // read done
  EXPECT_EQ(job.step_index(), 1u);
  EXPECT_FALSE(job.ExecuteTick());  // compute 1/2
  EXPECT_TRUE(job.ExecuteTick());   // compute 2/2
  EXPECT_EQ(job.RemainingWork(), 1);
  EXPECT_TRUE(job.ExecuteTick());  // write done
  EXPECT_TRUE(job.BodyDone());
  EXPECT_EQ(job.RemainingWork(), 0);
}

TEST_F(JobTest, CommitLifecycle) {
  Job job(0, set_.get(), 0, 0, 3, 13);
  while (!job.BodyDone()) job.ExecuteTick();
  job.MarkCommitted(7);
  EXPECT_EQ(job.state(), JobState::kCommitted);
  EXPECT_EQ(job.commit_time(), 7);
  EXPECT_FALSE(job.active());
}

TEST_F(JobTest, StepAdmissionFlagResetsPerStep) {
  Job job(0, set_.get(), 0, 0, 0, kNoTick);
  job.set_step_admitted(true);
  EXPECT_TRUE(job.ExecuteTick());
  EXPECT_FALSE(job.step_admitted());
}

TEST_F(JobTest, RestartResetsProgress) {
  Job job(0, set_.get(), 0, 0, 0, kNoTick);
  job.set_step_admitted(true);
  job.ExecuteTick();
  job.RecordRead(0);
  job.workspace().Put(1, Value{0, 0});
  job.RecordUndo(1, Value{});
  job.ResetForRestart();
  EXPECT_EQ(job.step_index(), 0u);
  EXPECT_TRUE(job.data_read().empty());
  EXPECT_TRUE(job.workspace().empty());
  EXPECT_TRUE(job.undo_log().empty());
  EXPECT_EQ(job.restarts(), 1);
}

TEST_F(JobTest, UndoLogKeepsOldestPreimage) {
  Job job(0, set_.get(), 0, 0, 0, kNoTick);
  job.RecordUndo(1, Value{7, 3});
  job.RecordUndo(1, Value{8, 4});  // ignored: first write wins
  ASSERT_EQ(job.undo_log().size(), 1u);
  EXPECT_EQ(job.undo_log()[0].item, 1);
  EXPECT_EQ(job.undo_log()[0].before.writer, 7);
}

TEST(JobPoolTest, RecycledJobEqualsFreshOne) {
  TransactionSpec low{.name = "L",
                      .period = 40,
                      .body = {Read(0), Write(1, 2), Read(2), Compute(3)}};
  TransactionSpec high{
      .name = "H", .period = 20, .body = {Compute(2), Read(1), Write(0)}};
  auto set = TransactionSet::Create({high, low});
  ASSERT_TRUE(set.ok());

  // Drive a job of L through every piece of state a run can leave behind:
  // step progress, read set, workspace, undo log, a restart, a recorded
  // miss, a raised running priority and a commit.
  Job used(4, &*set, 1, 2, 80, 120);
  used.set_step_admitted(true);
  used.RecordRead(0);
  used.RecordRead(2);
  used.workspace().Put(1, Value{4, 9});
  used.RecordUndo(1, Value{3, 7});
  used.ResetForRestart();
  used.set_running_priority(Priority(99));
  used.set_deadline_miss_recorded();
  used.RecordRead(0);
  while (!used.BodyDone()) used.ExecuteTick();
  used.MarkCommitted(130);

  used.Reset(11, &*set, 0, 5, 100, 140);
  const Job fresh(11, &*set, 0, 5, 100, 140);
  EXPECT_EQ(used.id(), fresh.id());
  EXPECT_EQ(used.spec_id(), fresh.spec_id());
  EXPECT_EQ(&used.spec(), &fresh.spec());
  EXPECT_EQ(used.instance(), fresh.instance());
  EXPECT_EQ(used.release_time(), fresh.release_time());
  EXPECT_EQ(used.absolute_deadline(), fresh.absolute_deadline());
  EXPECT_EQ(used.state(), fresh.state());
  EXPECT_TRUE(used.active());
  EXPECT_EQ(used.base_priority(), fresh.base_priority());
  EXPECT_EQ(used.running_priority(), fresh.running_priority());
  EXPECT_EQ(used.step_index(), fresh.step_index());
  EXPECT_EQ(used.remaining_in_step(), fresh.remaining_in_step());
  EXPECT_EQ(used.step_admitted(), fresh.step_admitted());
  EXPECT_EQ(used.BodyDone(), fresh.BodyDone());
  EXPECT_EQ(used.RemainingWork(), fresh.RemainingWork());
  EXPECT_EQ(used.data_read(), fresh.data_read());
  EXPECT_TRUE(used.data_read().empty());
  EXPECT_EQ(used.workspace().items(), fresh.workspace().items());
  EXPECT_TRUE(used.workspace().empty());
  EXPECT_FALSE(used.workspace().Get(1).has_value());
  EXPECT_TRUE(used.undo_log().empty());
  EXPECT_EQ(used.commit_time(), fresh.commit_time());
  EXPECT_EQ(used.restarts(), fresh.restarts());
  EXPECT_EQ(used.deadline_miss_recorded(), fresh.deadline_miss_recorded());
  EXPECT_EQ(used.DebugName(), fresh.DebugName());
  EXPECT_EQ(used.MayWrite(0), fresh.MayWrite(0));
  EXPECT_EQ(used.MayWrite(1), fresh.MayWrite(1));
}

TEST(DecisionRuleTest, RendersTheLegacyNotes) {
  const std::pair<DecisionRule, std::string> rendered[] = {
      {DecisionRule::kNone, ""},
      {DecisionRule::kLc1, "LC1"},
      {DecisionRule::kLc2, "LC2"},
      {DecisionRule::kLc3, "LC3"},
      {DecisionRule::kLc4, "LC4"},
      {DecisionRule::kLc1Denied, "LC1-denied"},
      {DecisionRule::kWrGuardDenied, "wr-guard"},
      {DecisionRule::kTstarGuardDenied, "LC-denied"},
      {DecisionRule::kCeilingDenied, "LC-denied"},
      {DecisionRule::kHpAbort, "2PL-HP"},
      {DecisionRule::kOccGrant, "occ"},
      {DecisionRule::kOccDaConstraint, "occ-da-constraint"},
  };
  for (const auto& [rule, text] : rendered) {
    EXPECT_EQ(ToString(rule), text) << static_cast<int>(rule);
  }
}

// J's read of x is denied first by the T* guard (T* = L, which will write
// x) and then, once M read-locks w above it, by the ceiling (T* = M, which
// never writes x; LC4 fails on L's read lock). Both print "LC-denied", so
// the switch continues J's episode: one block event, one ceiling block.
TEST(DecisionRuleTest, TstarGuardTurningIntoCeilingKeepsTheEpisode) {
  constexpr ItemId kX = 0;
  constexpr ItemId kW = 1;
  auto set = TransactionSet::Create({
      {.name = "M",
       .period = 100,
       .offset = 3,
       .body = {Read(kW), Compute(5), Write(kW)}},
      {.name = "J", .period = 100, .offset = 1, .body = {Read(kX), Write(kX)}},
      {.name = "L", .period = 100, .body = {Read(kX), Compute(5), Write(kX)}},
  });
  ASSERT_TRUE(set.ok());
  PcpDa protocol;
  SimulatorOptions options;
  options.horizon = 30;
  options.audit = true;
  Simulator sim(&*set, &protocol, options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  constexpr SpecId kJ = 1;

  // Who J waits on, tick by tick: L under the T* guard, then M.
  std::vector<JobId> blocker_at(12, kInvalidJob);
  for (const TickRecord& record : result.trace.ticks()) {
    for (const BlockedSample& sample : record.blocked) {
      if (sample.spec == kJ && record.tick < 12) {
        ASSERT_EQ(sample.blockers.size(), 1u) << "tick " << record.tick;
        blocker_at[static_cast<std::size_t>(record.tick)] =
            sample.blockers.front();
      }
    }
  }
  constexpr JobId kL = 0;
  constexpr JobId kM = 2;
  EXPECT_EQ(blocker_at[1], kL);
  EXPECT_EQ(blocker_at[3], kL);
  EXPECT_EQ(blocker_at[4], kM);

  int block_events = 0;
  for (const TraceEvent& event : result.trace.events()) {
    if (event.kind == TraceKind::kBlock && event.spec == kJ) {
      ++block_events;
      EXPECT_EQ(event.note, "LC-denied");
      EXPECT_EQ(event.tick, 1);
    }
  }
  EXPECT_EQ(block_events, 1);
  EXPECT_EQ(result.metrics.per_spec[kJ].ceiling_blocks, 1);
  EXPECT_EQ(result.metrics.per_spec[kJ].conflict_blocks, 0);
}

TEST_F(JobTest, PrioritiesAndNames) {
  Job job(0, set_.get(), 0, 2, 10, 20);
  EXPECT_EQ(job.base_priority(), set_->priority(0));
  EXPECT_EQ(job.running_priority(), set_->priority(0));
  job.set_running_priority(Priority(99));
  EXPECT_EQ(job.running_priority(), Priority(99));
  EXPECT_EQ(job.DebugName(), "T#2");
  // Write membership comes from the body: d1 is written, d0 only read.
  EXPECT_TRUE(job.MayWrite(1));
  EXPECT_FALSE(job.MayWrite(0));
}

TEST_F(JobTest, AdvanceWithinStepLeavesTheLastTickToExecuteTick) {
  Job job(0, set_.get(), 0, 0, 0, kNoTick);
  EXPECT_TRUE(job.ExecuteTick());  // Read(0) done; Compute(2) is current
  job.AdvanceWithinStep(1);
  EXPECT_EQ(job.remaining_in_step(), 1);
  EXPECT_EQ(job.step_index(), 1u);
  EXPECT_TRUE(job.ExecuteTick());  // the step's last tick still moves on
  EXPECT_EQ(job.step_index(), 2u);
}

// --- Metrics -----------------------------------------------------------

TEST(MetricsTest, Totals) {
  RunMetrics metrics;
  metrics.per_spec.resize(2);
  metrics.per_spec[0].released = 3;
  metrics.per_spec[0].committed = 2;
  metrics.per_spec[0].deadline_misses = 1;
  metrics.per_spec[1].released = 2;
  metrics.per_spec[1].committed = 2;
  metrics.per_spec[1].restarts = 4;
  EXPECT_EQ(metrics.TotalReleased(), 5);
  EXPECT_EQ(metrics.TotalCommitted(), 4);
  EXPECT_EQ(metrics.TotalMisses(), 1);
  EXPECT_EQ(metrics.TotalRestarts(), 4);
  EXPECT_FALSE(metrics.AllDeadlinesMet());
  EXPECT_DOUBLE_EQ(metrics.MissRatio(), 0.2);
}

TEST(MetricsTest, EmptyMissRatio) {
  RunMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.MissRatio(), 0.0);
  EXPECT_TRUE(metrics.AllDeadlinesMet());
}

TEST(MetricsTest, MissRatioExcludesCensoredPending) {
  RunMetrics metrics;
  metrics.per_spec.resize(1);
  metrics.per_spec[0].released = 5;
  metrics.per_spec[0].deadline_misses = 1;
  metrics.per_spec[0].pending_at_horizon = 1;
  EXPECT_EQ(metrics.TotalPending(), 1);
  // 1 miss over the 4 decided instances, not the 5 released.
  EXPECT_DOUBLE_EQ(metrics.MissRatio(), 0.25);
}

TEST(MetricsTest, MissRatioAllPendingIsZero) {
  RunMetrics metrics;
  metrics.per_spec.resize(1);
  metrics.per_spec[0].released = 2;
  metrics.per_spec[0].pending_at_horizon = 2;
  EXPECT_DOUBLE_EQ(metrics.MissRatio(), 0.0);
}


TEST(MetricsTest, MeanResponse) {
  SpecMetrics m;
  EXPECT_DOUBLE_EQ(m.MeanResponse(), 0.0);
  m.committed = 4;
  m.total_response = 10.0;
  EXPECT_DOUBLE_EQ(m.MeanResponse(), 2.5);
}

}  // namespace
}  // namespace pcpda
