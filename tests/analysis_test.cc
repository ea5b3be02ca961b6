#include <gtest/gtest.h>

#include "analysis/blocking.h"
#include "common/rng.h"
#include "test_util.h"
#include "workload/generator.h"
#include "analysis/report.h"
#include "analysis/response_time.h"
#include "analysis/rm_bound.h"
#include "workload/paper_examples.h"
#include "workload/scenario.h"

namespace pcpda {
namespace {

TransactionSet MakeSet(std::vector<TransactionSpec> specs,
                       PriorityAssignment pa =
                           PriorityAssignment::kAsListed) {
  auto set = TransactionSet::Create(std::move(specs), pa);
  EXPECT_TRUE(set.ok()) << set.status().ToString();
  return std::move(set).value();
}

// --- ComputeBlocking: BTS membership rules ---------------------------------

TEST(BlockingTest, PcpDaOnlyReadersBlock) {
  // L writes x (Aceil(x) = P_H because H reads it): under RW-PCP L blocks
  // H; under PCP-DA writes are preemptable so BTS_H is empty.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Read(0)}},
      {.name = "L", .period = 20, .body = {Write(0), Compute(2)}},
  });
  const auto pcpda = ComputeBlocking(set, ProtocolKind::kPcpDa);
  const auto rwpcp = ComputeBlocking(set, ProtocolKind::kRwPcp);
  EXPECT_TRUE(pcpda.per_spec[0].bts.empty());
  EXPECT_EQ(pcpda.B(0), 0);
  EXPECT_EQ(rwpcp.per_spec[0].bts, (std::vector<SpecId>{1}));
  EXPECT_EQ(rwpcp.B(0), 3);
}

TEST(BlockingTest, PcpDaReaderOfHighCeilingItemBlocks) {
  // L reads x which H writes: Wceil(x) = P_H, so L ∈ BTS_H under PCP-DA.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "L", .period = 20, .body = {Read(0), Compute(3)}},
  });
  const auto pcpda = ComputeBlocking(set, ProtocolKind::kPcpDa);
  EXPECT_EQ(pcpda.per_spec[0].bts, (std::vector<SpecId>{1}));
  EXPECT_EQ(pcpda.B(0), 4);
}

TEST(BlockingTest, IntermediateSpecBlockedThroughCeiling) {
  // M neither reads nor writes x, but L's read of x (Wceil = P_H >= P_M)
  // can ceiling-block M.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "M", .period = 20, .body = {Read(1)}},
      {.name = "L", .period = 40, .body = {Read(0), Compute(2)}},
  });
  const auto pcpda = ComputeBlocking(set, ProtocolKind::kPcpDa);
  EXPECT_EQ(pcpda.per_spec[1].bts, (std::vector<SpecId>{2}));
  EXPECT_EQ(pcpda.B(1), 3);
}

TEST(BlockingTest, HigherPriorityNeverInBts) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "L", .period = 20, .body = {Read(0)}},
  });
  for (ProtocolKind kind : AnalyzableProtocolKinds()) {
    const auto analysis = ComputeBlocking(set, kind);
    EXPECT_TRUE(analysis.per_spec[1].bts.empty())
        << ToString(kind) << ": lowest spec has nobody below it";
  }
}

TEST(BlockingTest, PcpDaBtsSubsetOfRwPcp) {
  const TransactionSet set = Example4().set;
  const auto pcpda = ComputeBlocking(set, ProtocolKind::kPcpDa);
  const auto rwpcp = ComputeBlocking(set, ProtocolKind::kRwPcp);
  for (SpecId i = 0; i < set.size(); ++i) {
    const auto& sub = pcpda.per_spec[static_cast<std::size_t>(i)].bts;
    const auto& super = rwpcp.per_spec[static_cast<std::size_t>(i)].bts;
    for (SpecId l : sub) {
      EXPECT_NE(std::find(super.begin(), super.end(), l), super.end());
    }
    EXPECT_LE(pcpda.B(i), rwpcp.B(i));
  }
}

TEST(BlockingTest, OpcpAtLeastAsPessimisticAsRwPcp) {
  const TransactionSet set = Example4().set;
  const auto opcp = ComputeBlocking(set, ProtocolKind::kOpcp);
  const auto rwpcp = ComputeBlocking(set, ProtocolKind::kRwPcp);
  for (SpecId i = 0; i < set.size(); ++i) {
    EXPECT_GE(opcp.B(i), rwpcp.B(i));
  }
}

TEST(BlockingTest, Example4Numbers) {
  const TransactionSet set = Example4().set;  // T1,T2,T3,T4 as listed
  const auto pcpda = ComputeBlocking(set, ProtocolKind::kPcpDa);
  const auto rwpcp = ComputeBlocking(set, ProtocolKind::kRwPcp);
  // T4 (C=5) reads y (Wceil=P2): blocks T2..T3 under PCP-DA; its write of
  // x (Aceil=P1) additionally blocks T1 under RW-PCP only.
  EXPECT_EQ(pcpda.B(0), 0);  // T1: nobody below reads a >=P1 item
  EXPECT_EQ(rwpcp.B(0), 5);  // T4's write of x has Aceil = P1
  EXPECT_EQ(pcpda.B(1), 5);  // T4 reads y, Wceil(y)=P2
  EXPECT_EQ(pcpda.B(2), 5);
}

// --- CCP holding window -----------------------------------------------------

TEST(CcpWindowTest, ReleaseAfterLastUseShortensWindow) {
  // body: Read(x) then 4 compute ticks; x ceiling >= level; no future
  // locks -> released after tick 1: window = 1, not C = 5.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "L", .period = 40, .body = {Read(0), Compute(4)}},
  });
  const StaticCeilings ceilings(set);
  EXPECT_EQ(CcpHoldingWindow(set.spec(1), ceilings, set.priority(0)), 1);
  const auto ccp = ComputeBlocking(set, ProtocolKind::kCcp);
  const auto rwpcp = ComputeBlocking(set, ProtocolKind::kRwPcp);
  EXPECT_EQ(ccp.B(0), 1);
  EXPECT_EQ(rwpcp.B(0), 5);
}

TEST(CcpWindowTest, HeldToEndWhenHigherCeilingFollows) {
  // L reads x (low ceiling) then later reads y (high ceiling): x cannot
  // be released before y's acquisition.
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(1)}},   // Wceil(y)=P1
      {.name = "M", .period = 20, .body = {Write(0)}},   // Wceil(x)=P2
      {.name = "L",
       .period = 40,
       .body = {Read(0), Compute(2), Read(1), Compute(1)}},
  });
  const StaticCeilings ceilings(set);
  // Window at level P2: x acquired at 0; release only when no higher
  // future ceiling remains: y (ceiling P1) is read at step 3, so x is
  // held until after that read -> window spans [0, 4); y itself is
  // released at 4 (last step has no higher ceiling) -> max release 4.
  EXPECT_EQ(CcpHoldingWindow(set.spec(2), ceilings, set.priority(1)), 4);
}

TEST(CcpWindowTest, ZeroWhenNoOffendingItems) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Read(0)}},
      {.name = "L", .period = 40, .body = {Read(1), Compute(2)}},
  });
  const StaticCeilings ceilings(set);
  EXPECT_EQ(CcpHoldingWindow(set.spec(1), ceilings, set.priority(0)), 0);
}

// --- Liu-Layland test -------------------------------------------------------

TEST(RmBoundTest, BoundValues) {
  EXPECT_DOUBLE_EQ(RmUtilizationBound(1), 1.0);
  EXPECT_NEAR(RmUtilizationBound(2), 0.8284, 1e-3);
  EXPECT_NEAR(RmUtilizationBound(3), 0.7798, 1e-3);
}

TEST(RmBoundTest, AcceptsLowUtilization) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Compute(2)}},
          {.name = "B", .period = 20, .body = {Compute(2)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto result = LiuLaylandTest(set, {0, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schedulable);
}

TEST(RmBoundTest, BlockingTermCanBreakIt) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Compute(2)}},
          {.name = "B", .period = 20, .body = {Compute(2)}},
      },
      PriorityAssignment::kRateMonotonic);
  // B_1 = 7 adds 0.7 to A's term: 0.2 + 0.7 < 1.0 still OK; B_1 = 9
  // pushes it over.
  auto ok = LiuLaylandTest(set, {7, 0});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->schedulable);
  auto bad = LiuLaylandTest(set, {9, 0});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->schedulable);
  EXPECT_FALSE(bad->per_spec[0].schedulable);
}

TEST(RmBoundTest, RejectsOneShotSpecs) {
  TransactionSet set = MakeSet({{.name = "A", .body = {Compute(1)}}});
  EXPECT_FALSE(LiuLaylandTest(set, {0}).ok());
}

TEST(RmBoundTest, RejectsWrongVectorSize) {
  TransactionSet set = MakeSet(
      {{.name = "A", .period = 10, .body = {Compute(1)}}},
      PriorityAssignment::kRateMonotonic);
  EXPECT_FALSE(LiuLaylandTest(set, {0, 0}).ok());
}

TEST(RmBoundTest, RejectsNonRmOrder) {
  TransactionSet set = MakeSet(
      {
          {.name = "slow", .period = 20, .body = {Compute(1)}},
          {.name = "fast", .period = 10, .body = {Compute(1)}},
      },
      PriorityAssignment::kAsListed);
  EXPECT_FALSE(LiuLaylandTest(set, {0, 0}).ok());
}

// --- Response-time analysis ---------------------------------------------------

TEST(ResponseTimeTest, ExactFixpoint) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Compute(3)}},
          {.name = "B", .period = 20, .body = {Compute(4)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto result = ResponseTimeAnalysis(set, {0, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->schedulable);
  EXPECT_EQ(result->per_spec[0].response, 3);
  EXPECT_EQ(result->per_spec[1].response, 7);  // 4 + one preemption by A
}

TEST(ResponseTimeTest, BlockingAddsDirectly) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Compute(3)}},
          {.name = "B", .period = 20, .body = {Compute(4)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto result = ResponseTimeAnalysis(set, {2, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->per_spec[0].response, 5);
}

TEST(ResponseTimeTest, DetectsUnschedulable) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 4, .body = {Compute(3)}},
          {.name = "B", .period = 8, .body = {Compute(4)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto result = ResponseTimeAnalysis(set, {0, 0});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->per_spec[0].schedulable);
  EXPECT_FALSE(result->per_spec[1].schedulable);
  EXPECT_FALSE(result->schedulable);
}

TEST(ResponseTimeTest, TighterThanLiuLayland) {
  // Classic case: utilization above the LL bound yet schedulable.
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 4, .body = {Compute(2)}},
          {.name = "B", .period = 8, .body = {Compute(4)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto ll = LiuLaylandTest(set, {0, 0});
  const auto rta = ResponseTimeAnalysis(set, {0, 0});
  ASSERT_TRUE(ll.ok());
  ASSERT_TRUE(rta.ok());
  EXPECT_FALSE(ll->schedulable);   // U = 1.0 > 0.828
  EXPECT_TRUE(rta->schedulable);   // exact test: fits perfectly
}

// --- Reports -----------------------------------------------------------------

TEST(ReportTest, BlockingComparisonTableMentionsAllProtocols) {
  const std::string table = BlockingComparisonTable(Example4().set);
  EXPECT_NE(table.find("PCP-DA"), std::string::npos);
  EXPECT_NE(table.find("RW-PCP"), std::string::npos);
  EXPECT_NE(table.find("CCP"), std::string::npos);
  EXPECT_NE(table.find("T4"), std::string::npos);
}

TEST(ReportTest, SchedulabilityReportRunsOnPeriodicSet) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Read(0)}},
          {.name = "B", .period = 20, .body = {Write(0), Compute(1)}},
      },
      PriorityAssignment::kRateMonotonic);
  const std::string report = SchedulabilityReport(set);
  EXPECT_NE(report.find("Liu-Layland"), std::string::npos);
  EXPECT_NE(report.find("response-time"), std::string::npos);
  EXPECT_NE(report.find("schedulable"), std::string::npos);
}


// --- Hyperbolic bound (extension) --------------------------------------------

TEST(HyperbolicTest, TighterThanLiuLayland) {
  // U = 0.5 + 0.333 = 0.833 > LL bound 0.828, but the hyperbolic product
  // (1.5)(1.333) = 2.0 <= 2 admits it.
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 2, .body = {Compute(1)}},
          {.name = "B", .period = 3, .body = {Compute(1)}},
      },
      PriorityAssignment::kRateMonotonic);
  const auto ll = LiuLaylandTest(set, {0, 0});
  const auto hb = HyperbolicTest(set, {0, 0});
  ASSERT_TRUE(ll.ok());
  ASSERT_TRUE(hb.ok());
  EXPECT_FALSE(ll->schedulable);
  EXPECT_TRUE(hb->schedulable);
}

TEST(HyperbolicTest, BlockingFactorCanBreakIt) {
  TransactionSet set = MakeSet(
      {
          {.name = "A", .period = 10, .body = {Compute(4)}},
          {.name = "B", .period = 20, .body = {Compute(6)}},
      },
      PriorityAssignment::kRateMonotonic);
  auto ok = HyperbolicTest(set, {0, 0});
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(ok->schedulable);  // A: 1.4 <= 2; B: 1.4 * 1.3 = 1.82 <= 2
  // B_1 = 7 makes A's term 0.4 + 0.7 + 1 = 2.1 > 2.
  auto bad = HyperbolicTest(set, {7, 0});
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(bad->schedulable);
  EXPECT_FALSE(bad->per_spec[0].schedulable);
  EXPECT_TRUE(bad->per_spec[1].schedulable);
}

TEST(HyperbolicTest, RejectsOneShotAndBadSizes) {
  TransactionSet one_shot = MakeSet({{.name = "A", .body = {Compute(1)}}});
  EXPECT_FALSE(HyperbolicTest(one_shot, {0}).ok());
  TransactionSet periodic = MakeSet(
      {{.name = "A", .period = 10, .body = {Compute(1)}}},
      PriorityAssignment::kRateMonotonic);
  EXPECT_FALSE(HyperbolicTest(periodic, {0, 0}).ok());
}

TEST(HyperbolicTest, NeverRejectsWhatLiuLaylandAccepts) {
  // The hyperbolic bound dominates LL: anything LL admits passes.
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Rng rng(seed);
    WorkloadParams params;
    params.total_utilization = 0.55;
    auto set = GenerateWorkload(params, rng);
    ASSERT_TRUE(set.ok());
    const auto blocking = ComputeBlocking(*set, ProtocolKind::kPcpDa);
    const auto ll = LiuLaylandTest(*set, blocking.AllB());
    const auto hb = HyperbolicTest(*set, blocking.AllB());
    ASSERT_TRUE(ll.ok());
    ASSERT_TRUE(hb.ok());
    if (ll->schedulable) {
      EXPECT_TRUE(hb->schedulable) << "seed " << seed;
    }
  }
}

// --- Deadline-monotonic assignment (extension) -------------------------------

TEST(DeadlineMonotonicTest, OrdersByEffectiveDeadline) {
  TransactionSpec a{.name = "long", .period = 10, .body = {Compute(1)}};
  TransactionSpec b{.name = "short", .period = 50, .body = {Compute(1)}};
  b.relative_deadline = 5;  // shorter deadline than a's period
  auto set = TransactionSet::Create(
      {a, b}, PriorityAssignment::kDeadlineMonotonic);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->spec(0).name, "short");
  EXPECT_EQ(set->spec(1).name, "long");
}

TEST(DeadlineMonotonicTest, EqualsRateMonotonicWithoutDeadlines) {
  TransactionSpec a{.name = "a", .period = 30, .body = {Compute(1)}};
  TransactionSpec b{.name = "b", .period = 10, .body = {Compute(1)}};
  auto dm = TransactionSet::Create(
      {a, b}, PriorityAssignment::kDeadlineMonotonic);
  auto rm = TransactionSet::Create({a, b});
  ASSERT_TRUE(dm.ok());
  ASSERT_TRUE(rm.ok());
  EXPECT_EQ(dm->DebugString(), rm->DebugString());
}

TEST(DeadlineMonotonicTest, CanScheduleWhatRmMisses) {
  // Classic: a long-period transaction with a tight deadline needs DM.
  TransactionSpec urgent{.name = "urgent",
                         .period = 100,
                         .body = {Compute(2)}};
  urgent.relative_deadline = 4;
  TransactionSpec frequent{.name = "frequent",
                           .period = 10,
                           .body = {Compute(3)}};
  auto rm = TransactionSet::Create({urgent, frequent});
  auto dm = TransactionSet::Create(
      {urgent, frequent}, PriorityAssignment::kDeadlineMonotonic);
  ASSERT_TRUE(rm.ok());
  ASSERT_TRUE(dm.ok());
  const SimResult rm_run = RunWith(*rm, ProtocolKind::kPcpDa, 100);
  const SimResult dm_run = RunWith(*dm, ProtocolKind::kPcpDa, 100);
  EXPECT_GT(rm_run.metrics.TotalMisses(), 0);
  EXPECT_EQ(dm_run.metrics.TotalMisses(), 0);
}

// --- Response percentiles (extension) ----------------------------------------

TEST(ResponsePercentileTest, NearestRank) {
  SpecMetrics m;
  for (Tick r : {5, 1, 9, 3, 7}) m.AddResponse(r);
  EXPECT_EQ(m.ResponsePercentile(0.0), 1);
  EXPECT_EQ(m.ResponsePercentile(0.5), 5);
  EXPECT_EQ(m.ResponsePercentile(1.0), 9);
}

TEST(ResponsePercentileTest, ExtremesAreExactOrderStatistics) {
  SpecMetrics m;
  for (Tick r : {4, 2, 8, 6}) m.AddResponse(r);  // even count: rounding
                                                 // ranks would drift
  EXPECT_EQ(m.ResponsePercentile(0.0), 2);  // exact minimum
  EXPECT_EQ(m.ResponsePercentile(1.0), 8);  // exact maximum
  // Nearest rank: index ceil(p*n)-1 over the sorted sample {2,4,6,8}.
  EXPECT_EQ(m.ResponsePercentile(0.25), 2);
  EXPECT_EQ(m.ResponsePercentile(0.5), 4);
  EXPECT_EQ(m.ResponsePercentile(0.75), 6);
}

TEST(ResponsePercentileTest, SingleSample) {
  SpecMetrics m;
  m.AddResponse(7);
  EXPECT_EQ(m.ResponsePercentile(0.0), 7);
  EXPECT_EQ(m.ResponsePercentile(0.5), 7);
  EXPECT_EQ(m.ResponsePercentile(1.0), 7);
}

TEST(ResponsePercentileTest, EmptyIsZero) {
  SpecMetrics m;
  EXPECT_EQ(m.ResponsePercentile(0.9), 0);
}

TEST(ResponsePercentileTest, BatchMatchesPerCallOnBothPaths) {
  SpecMetrics m;
  for (Tick r : {12, 4, 20, 4, 16, 8, 2, 18}) m.AddResponse(r);
  // Large and small batches must agree elementwise with the per-call
  // answers, regardless of the order the quantiles are asked in.
  const std::vector<double> many = {1.0, 0.0, 0.5, 0.25, 0.75, 0.9};
  const std::vector<Tick> batch = m.ResponsePercentiles(many);
  ASSERT_EQ(batch.size(), many.size());
  for (std::size_t i = 0; i < many.size(); ++i) {
    EXPECT_EQ(batch[i], m.ResponsePercentile(many[i])) << "p=" << many[i];
  }
  const std::vector<Tick> pair = m.ResponsePercentiles({0.95, 0.05});
  ASSERT_EQ(pair.size(), 2u);
  EXPECT_EQ(pair[0], m.ResponsePercentile(0.95));
  EXPECT_EQ(pair[1], m.ResponsePercentile(0.05));
}

TEST(ResponsePercentileTest, BatchOnEmptyYieldsZeros) {
  SpecMetrics m;
  const std::vector<Tick> out = m.ResponsePercentiles({0.0, 0.5, 1.0});
  EXPECT_EQ(out, (std::vector<Tick>{0, 0, 0}));
}

TEST(ResponsePercentileTest, PopulatedBySimulator) {
  TransactionSet set = MakeSet(
      {{.name = "T", .period = 5, .body = {Compute(2)}}},
      PriorityAssignment::kRateMonotonic);
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, 25);
  const auto& m = result.metrics.per_spec[0];
  EXPECT_EQ(m.ResponseCount(), 5);
  EXPECT_EQ(m.ResponsePercentile(1.0), m.max_response);
}

// --- ProtocolTraits analyzability -----------------------------------------

TEST(TraitsTest, AnalyzableDerivedFromBlockingBound) {
  for (ProtocolKind kind : AllProtocolKinds()) {
    const ProtocolTraits traits = TraitsOf(kind);
    EXPECT_EQ(traits.analyzable(),
              traits.blocking_bound != BlockingBoundKind::kUnbounded)
        << ToString(kind);
  }
  // Exactly 2PL-PI lacks a finite bound.
  const auto kinds = AnalyzableProtocolKinds();
  EXPECT_EQ(kinds.size(), AllProtocolKinds().size() - 1);
  for (ProtocolKind kind : kinds) {
    EXPECT_NE(kind, ProtocolKind::kTwoPlPi);
  }
}

// --- protocol-specific blocking terms --------------------------------------

TEST(BlockingTest, TwoPlHpSumsConflictingLowerSpecs) {
  // 2PL-HP riders: a lock wait can queue behind EVERY conflicting lower
  // spec, so B sums their execution times (ceiling protocols take the
  // max of one critical section instead).
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "M", .period = 20, .body = {Read(0), Compute(1)}},
      {.name = "L", .period = 40, .body = {Write(0), Compute(3)}},
  });
  const auto hp = ComputeBlocking(set, ProtocolKind::kTwoPlHp);
  EXPECT_EQ(hp.per_spec[0].bts, (std::vector<SpecId>{1, 2}));
  EXPECT_EQ(hp.B(0), 2 + 4);
  EXPECT_EQ(hp.B(1), 4);
  EXPECT_EQ(hp.B(2), 0);
  // Higher-priority conflicting specs abort instead of blocking: they
  // become restart sources, one abort per conflicting lock request.
  ASSERT_EQ(hp.per_spec[1].restart_sources.size(), 1u);
  EXPECT_EQ(hp.per_spec[1].restart_sources[0].spec, 0);
  EXPECT_EQ(hp.per_spec[1].restart_sources[0].per_release, 1);
  ASSERT_EQ(hp.per_spec[2].restart_sources.size(), 2u);
  EXPECT_EQ(hp.per_spec[2].restart_sources[0].spec, 0);
  EXPECT_EQ(hp.per_spec[2].restart_sources[1].spec, 1);
}

TEST(BlockingTest, OccNeverBlocksOnlyRestarts) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "M", .period = 20, .body = {Read(0), Compute(1)}},
      {.name = "L", .period = 40, .body = {Read(1), Compute(1)}},
  });
  for (ProtocolKind kind :
       {ProtocolKind::kOccBc, ProtocolKind::kOccDa}) {
    const auto occ = ComputeBlocking(set, kind);
    EXPECT_EQ(occ.AllB(), (std::vector<Tick>{0, 0, 0})) << ToString(kind);
    // Only M reads what H writes; L's read set is disjoint.
    EXPECT_TRUE(occ.per_spec[0].restart_sources.empty());
    ASSERT_EQ(occ.per_spec[1].restart_sources.size(), 1u);
    EXPECT_EQ(occ.per_spec[1].restart_sources[0].spec, 0);
    EXPECT_EQ(occ.per_spec[1].restart_sources[0].per_release, 1);
    EXPECT_TRUE(occ.per_spec[2].restart_sources.empty());
  }
}

TEST(BlockingTest, TwoPlPiUnboundedOnlyWhenConflicting) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 10, .body = {Write(0)}},
      {.name = "B", .period = 20, .body = {Read(0)}},
      {.name = "C", .period = 40, .body = {Read(1)}},
  });
  const auto pi = ComputeBlocking(set, ProtocolKind::kTwoPlPi);
  EXPECT_FALSE(pi.bounded);
  EXPECT_FALSE(pi.per_spec[0].bounded);
  EXPECT_FALSE(pi.per_spec[1].bounded);
  // C touches only d1, which nobody writes: no chained blocking.
  EXPECT_TRUE(pi.per_spec[2].bounded);
  EXPECT_EQ(pi.ForSpec(2).worst_blocking, 0);
}

#if GTEST_HAS_DEATH_TEST
TEST(BlockingDeathTest, UnboundedBRefusesToAnswer) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 10, .body = {Write(0)}},
      {.name = "B", .period = 20, .body = {Read(0)}},
  });
  const auto pi = ComputeBlocking(set, ProtocolKind::kTwoPlPi);
  EXPECT_DEATH(pi.B(0), "no finite blocking bound");
}

TEST(BlockingDeathTest, OutOfRangeSpecIdRefused) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 10, .body = {Write(0)}},
  });
  const auto analysis = ComputeBlocking(set, ProtocolKind::kPcpDa);
  EXPECT_DEATH(analysis.ForSpec(1), "out of range");
  EXPECT_DEATH(analysis.B(-1), "out of range");
}
#endif  // GTEST_HAS_DEATH_TEST

// --- AnalyzeResponseTimes: verdicts ----------------------------------------

TEST(SchedAnalysisTest, SchedulableWithCeilingBlocking) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Read(0)}},
      {.name = "L", .period = 20, .body = {Write(0), Compute(2)}},
  });
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kRwPcp));
  // R_H = C_H + B_H = 1 + 3; R_L = 3 + ceil(4/10) * 1.
  EXPECT_EQ(sched.per_spec[0].verdict, SchedVerdict::kSchedulable);
  EXPECT_EQ(sched.per_spec[0].response, 4);
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kSchedulable);
  EXPECT_EQ(sched.per_spec[1].response, 4);
  EXPECT_EQ(sched.verdict, SchedVerdict::kSchedulable);
}

TEST(SchedAnalysisTest, OverloadIsUnschedulable) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 4, .body = {Compute(3)}},
      {.name = "L", .period = 8, .body = {Compute(4)}},
  });
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kPcpDa));
  EXPECT_EQ(sched.per_spec[0].verdict, SchedVerdict::kSchedulable);
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kUnschedulable);
  EXPECT_EQ(sched.per_spec[1].response, kNoTick);
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnschedulable);
}

TEST(SchedAnalysisTest, OneShotSetIsUnknown) {
  TransactionSet set = MakeSet({
      {.name = "A", .body = {Read(0)}},
      {.name = "B", .period = 10, .body = {Write(0)}},
  });
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kPcpDa));
  EXPECT_EQ(sched.per_spec[0].verdict, SchedVerdict::kUnknown);
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kUnknown);
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnknown);
}

TEST(SchedAnalysisTest, UnboundedSpecAndEverythingBelowIsUnknown) {
  TransactionSet set = MakeSet({
      {.name = "A", .period = 10, .body = {Write(0)}},
      {.name = "B", .period = 20, .body = {Read(0)}},
      {.name = "C", .period = 40, .body = {Read(1)}},
  });
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kTwoPlPi));
  EXPECT_EQ(sched.per_spec[0].verdict, SchedVerdict::kUnknown);
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kUnknown);
  // C is bounded and its fixpoint converges, but the unbounded specs
  // above it could overrun arbitrarily — no sound claim exists.
  EXPECT_EQ(sched.per_spec[2].verdict, SchedVerdict::kUnknown);
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnknown);
}

TEST(SchedAnalysisTest, UnschedulableHigherSpecDegradesLowerClaim) {
  TransactionSet set = MakeSet({
      {.name = "H",
       .period = 10,
       .relative_deadline = 2,
       .body = {Compute(3)}},
      {.name = "L", .period = 10, .body = {Compute(1)}},
  });
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kPcpDa));
  EXPECT_EQ(sched.per_spec[0].verdict, SchedVerdict::kUnschedulable);
  // L's fixpoint converges (R = 4 <= 10) but H's overrun carries backlog
  // the interference term does not model: claim degrades to unknown.
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kUnknown);
  EXPECT_EQ(sched.per_spec[1].response, 4);
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnschedulable);
}

TEST(SchedAnalysisTest, RestartCostInflatesResponse) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Write(0)}},
      {.name = "L", .period = 30, .body = {Read(0), Compute(1)}},
  });
  const auto occ = ComputeBlocking(set, ProtocolKind::kOccBc);
  ASSERT_EQ(occ.per_spec[1].restart_sources.size(), 1u);
  const auto sched = AnalyzeResponseTimes(set, occ);
  // R_L = C_L + ceil(R/10) C_H + (ceil(R/10) + 1) * 1 * C_L
  //     = 2 + 1 + 2*2 = 7 at the fixpoint — well above the
  // restart-free R = 3.
  EXPECT_EQ(sched.per_spec[1].verdict, SchedVerdict::kSchedulable);
  EXPECT_EQ(sched.per_spec[1].response, 7);
}

// --- shipped-scenario goldens (hand-computed Section-9 numbers) ------------

std::string ScenarioPath(const char* name) {
  return std::string(PCPDA_SOURCE_DIR) + "/scenarios/" + name;
}

TEST(ScenarioGoldenTest, Example1BlockingNumbers) {
  // T1 reads x, C=2; T2 reads y, C=2; T3 writes x then computes, C=3.
  const auto scenario = LoadScenarioFile(ScenarioPath("example1.scn"));
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const TransactionSet& set = scenario->set;
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kPcpDa).AllB(),
            (std::vector<Tick>{0, 0, 0}));
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kRwPcp).AllB(),
            (std::vector<Tick>{3, 3, 0}));
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kOpcp).AllB(),
            (std::vector<Tick>{3, 3, 0}));
  // CCP: T3's write of x is released after its holding window (1 tick),
  // not at commit.
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kCcp).AllB(),
            (std::vector<Tick>{1, 1, 0}));
  const auto hp = ComputeBlocking(set, ProtocolKind::kTwoPlHp);
  EXPECT_EQ(hp.AllB(), (std::vector<Tick>{3, 0, 0}));
  ASSERT_EQ(hp.ForSpec(2).restart_sources.size(), 1u);
  EXPECT_EQ(hp.ForSpec(2).restart_sources[0].spec, 0);
  EXPECT_EQ(hp.ForSpec(2).restart_sources[0].per_release, 1);
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kOccBc).AllB(),
            (std::vector<Tick>{0, 0, 0}));
  // One-shot transactions: no RTA model, every verdict unknown.
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kPcpDa));
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnknown);
}

TEST(ScenarioGoldenTest, Example3BlockingNumbers) {
  // T1 (period 5) reads x and y, C=2; T2 one-shot writes x then y with
  // computes in between, C=5.
  const auto scenario = LoadScenarioFile(ScenarioPath("example3.scn"));
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const TransactionSet& set = scenario->set;
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kPcpDa).AllB(),
            (std::vector<Tick>{0, 0}));
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kRwPcp).AllB(),
            (std::vector<Tick>{5, 0}));
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kOpcp).AllB(),
            (std::vector<Tick>{5, 0}));
  // CCP: T2's last acquisition is the write of y ending at offset 4, so
  // both writes stay held over the window [0, 4).
  EXPECT_EQ(ComputeBlocking(set, ProtocolKind::kCcp).AllB(),
            (std::vector<Tick>{4, 0}));
  const auto hp = ComputeBlocking(set, ProtocolKind::kTwoPlHp);
  EXPECT_EQ(hp.AllB(), (std::vector<Tick>{5, 0}));
  // T1's two reads both land on items T2 writes: two aborts per release.
  ASSERT_EQ(hp.ForSpec(1).restart_sources.size(), 1u);
  EXPECT_EQ(hp.ForSpec(1).restart_sources[0].spec, 0);
  EXPECT_EQ(hp.ForSpec(1).restart_sources[0].per_release, 2);
  // Mixed periodic/one-shot: still no RTA model.
  const auto sched = AnalyzeResponseTimes(
      set, ComputeBlocking(set, ProtocolKind::kRwPcp));
  EXPECT_EQ(sched.verdict, SchedVerdict::kUnknown);
}

// --- AnalyzeSet / renderers ------------------------------------------------

TEST(ReportTest, AnalyzeSetCoversRequestedProtocols) {
  TransactionSet set = MakeSet({
      {.name = "H", .period = 10, .body = {Read(0)}},
      {.name = "L", .period = 20, .body = {Write(0), Compute(2)}},
  });
  const AnalysisReport report = AnalyzeSet(
      set, {ProtocolKind::kRwPcp, ProtocolKind::kTwoPlPi});
  ASSERT_EQ(report.per_protocol.size(), 2u);
  EXPECT_EQ(report.per_protocol[0].sched.verdict,
            SchedVerdict::kSchedulable);
  EXPECT_FALSE(report.per_protocol[1].blocking.bounded);
  EXPECT_EQ(report.per_protocol[1].sched.verdict, SchedVerdict::kUnknown);
  EXPECT_TRUE(report.AnyVerdict(SchedVerdict::kSchedulable));
  EXPECT_TRUE(report.AnyVerdict(SchedVerdict::kUnknown));
  EXPECT_FALSE(report.AnyVerdict(SchedVerdict::kUnschedulable));

  JsonWriter writer;
  RenderAnalysisJson("x.scn", set, report, writer);
  const std::string json = writer.Finish();
  for (const char* key :
       {"\"file\"", "\"protocols\"", "\"verdict\"", "\"specs\"", "\"B\"",
        "\"response\"", "\"bts\"", "\"restarts\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // 2PL-PI's unbounded B renders as null, not a number.
  EXPECT_NE(json.find("\"B\": null"), std::string::npos);
}

// --- generated sweep: simulation never exceeds the analytical bound --------

TEST(AnalysisSweepTest, ObservedBlockingWithinBoundOnThousandScenarios) {
  // 1000 seeded workloads x every protocol with a finite bound: the
  // worst observed per-instance effective blocking must stay within the
  // analytical B_i. Small periods + a tight item pool keep contention
  // high and the horizon cheap.
  WorkloadParams params;
  params.num_transactions = 5;
  params.num_items = 6;
  params.min_period = 10;
  params.max_period = 40;
  params.min_ops = 2;
  params.max_ops = 4;
  params.write_fraction = 0.5;
  const double utils[] = {0.3, 0.5, 0.7, 0.9};
  const Tick horizon = 120;
  int generated = 0;
  for (int s = 0; s < 1000; ++s) {
    params.total_utilization = utils[s % 4];
    Rng rng(SplitMixSeed(0xb10c, static_cast<std::uint64_t>(s)));
    const auto set = GenerateWorkload(params, rng);
    if (!set.ok()) continue;
    ++generated;
    for (ProtocolKind kind : AnalyzableProtocolKinds()) {
      const BlockingAnalysis analysis = ComputeBlocking(*set, kind);
      auto protocol = MakeProtocol(kind);
      SimulatorOptions options;
      options.horizon = horizon;
      options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
      options.record_trace = false;
      options.record_history = false;
      Simulator sim(PlanOf(set.value()), protocol.get(), options);
      const SimResult result = sim.Run();
      ASSERT_TRUE(result.status.ok())
          << ToString(kind) << " seed " << s << ": "
          << result.status.ToString();
      for (SpecId i = 0; i < set->size(); ++i) {
        EXPECT_LE(result.metrics.per_spec[static_cast<std::size_t>(i)]
                      .max_effective_blocking,
                  analysis.B(i))
            << ToString(kind) << " seed " << s << " spec "
            << set->spec(i).name;
      }
    }
  }
  // The generator must not silently reject the sweep's parameters.
  EXPECT_GE(generated, 900);
}

}  // namespace
}  // namespace pcpda
