// Randomized property tests: the paper's theorems, checked on generated
// workloads across protocols. Parameterized over (seed, utilization,
// write fraction) sweeps.

#include <map>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "analysis/blocking.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/serialization_order.h"
#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "test_util.h"
#include "workload/generator.h"

namespace pcpda {
namespace {

constexpr Tick kHorizon = 2000;

struct SweepParam {
  std::uint64_t seed;
  double utilization;
  double write_fraction;
};

std::string ParamName(const ::testing::TestParamInfo<SweepParam>& info) {
  return StrFormat("seed%llu_u%02d_w%02d",
                   static_cast<unsigned long long>(info.param.seed),
                   static_cast<int>(info.param.utilization * 100),
                   static_cast<int>(info.param.write_fraction * 100));
}

class ProtocolPropertyTest : public ::testing::TestWithParam<SweepParam> {
 protected:
  TransactionSet Generate() {
    const SweepParam& p = GetParam();
    Rng rng(p.seed);
    WorkloadParams params;
    params.num_transactions = 8;
    params.num_items = 12;
    params.total_utilization = p.utilization;
    params.min_period = 30;
    params.max_period = 400;
    params.write_fraction = p.write_fraction;
    auto set = GenerateWorkload(params, rng);
    EXPECT_TRUE(set.ok()) << set.status().ToString();
    return std::move(set).value();
  }

  /// Distinct lower-base-priority blocker jobs per blocked job.
  static std::map<JobId, std::set<JobId>> LowerPriorityBlockers(
      const TransactionSet& set, const SimResult& result) {
    std::map<JobId, std::set<JobId>> blockers;
    std::map<JobId, SpecId> spec_of;
    for (const TraceEvent& e : result.trace.events()) {
      if (e.kind == TraceKind::kArrival) spec_of[e.job] = e.spec;
    }
    for (const TickSpan& span : result.trace.spans()) {
      for (const BlockedSample& sample : span.record.blocked) {
        for (JobId blocker : sample.blockers) {
          auto it = spec_of.find(blocker);
          if (it == spec_of.end()) continue;
          if (set.priority(it->second) < set.priority(sample.spec)) {
            blockers[sample.job].insert(blocker);
          }
        }
      }
    }
    return blockers;
  }

  static void ExpectEngineConservation(const TransactionSet& set,
                                       const SimResult& result) {
    // CPU conservation: busy + idle == horizon.
    Tick busy = 0;
    for (const auto& m : result.metrics.per_spec) busy += m.busy_ticks;
    EXPECT_EQ(busy + result.metrics.idle_ticks, result.metrics.horizon);
    // Lifecycle conservation.
    for (SpecId i = 0; i < set.size(); ++i) {
      const auto& m = result.metrics.per_spec[static_cast<std::size_t>(i)];
      EXPECT_LE(m.committed + m.dropped, m.released);
      EXPECT_GE(m.released, 0);
    }
  }
};

TEST_P(ProtocolPropertyTest, PcpDaTheorems) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, kHorizon);
  ASSERT_TRUE(result.status.ok());

  // Theorem 2: deadlock freedom.
  EXPECT_FALSE(result.deadlock_detected);
  // No-restart design goal.
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
  // Theorem 3: serializability.
  EXPECT_TRUE(IsSerializable(result.history));
  // Lemma 9 / Case 1: a committed transaction never had write-read
  // conflicts with executing ones (readers commit first).
  EXPECT_TRUE(FindCommitOrderViolations(result.history).empty());
  ExpectEngineConservation(set, result);

  // Theorem 1 (single blocking), in the paper's schedulable setting.
  if (result.metrics.AllDeadlinesMet()) {
    for (const auto& [job, blockers] : LowerPriorityBlockers(set, result)) {
      EXPECT_LE(blockers.size(), 1u)
          << "job " << job << " blocked by " << blockers.size()
          << " distinct lower-priority jobs";
    }
  }
}

TEST_P(ProtocolPropertyTest, PcpDaBlockingWithinAnalysisBound) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kPcpDa, kHorizon);
  if (!result.metrics.AllDeadlinesMet()) GTEST_SKIP() << "overloaded run";
  const BlockingAnalysis analysis =
      ComputeBlocking(set, ProtocolKind::kPcpDa);
  for (SpecId i = 0; i < set.size(); ++i) {
    EXPECT_LE(result.metrics.per_spec[static_cast<std::size_t>(i)]
                  .max_effective_blocking,
              analysis.B(i))
        << set.spec(i).name << " exceeded its Section-9 bound";
  }
}

TEST_P(ProtocolPropertyTest, RwPcpProperties) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kRwPcp, kHorizon);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
  EXPECT_TRUE(IsSerializable(result.history));
  ExpectEngineConservation(set, result);
  if (result.metrics.AllDeadlinesMet()) {
    for (const auto& [job, blockers] : LowerPriorityBlockers(set, result)) {
      EXPECT_LE(blockers.size(), 1u);
    }
    const BlockingAnalysis analysis =
        ComputeBlocking(set, ProtocolKind::kRwPcp);
    for (SpecId i = 0; i < set.size(); ++i) {
      EXPECT_LE(result.metrics.per_spec[static_cast<std::size_t>(i)]
                    .max_effective_blocking,
                analysis.B(i));
    }
  }
}

TEST_P(ProtocolPropertyTest, CcpProperties) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kCcp, kHorizon);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
  EXPECT_TRUE(IsSerializable(result.history));
  ExpectEngineConservation(set, result);
}

TEST_P(ProtocolPropertyTest, OpcpProperties) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kOpcp, kHorizon);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_EQ(result.metrics.TotalRestarts(), 0);
  EXPECT_TRUE(IsSerializable(result.history));
  ExpectEngineConservation(set, result);
}

TEST_P(ProtocolPropertyTest, TwoPlHpProperties) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kTwoPlHp, kHorizon);
  ASSERT_TRUE(result.status.ok());
  // HP is deadlock-free: waits only ever point at higher priorities.
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
  ExpectEngineConservation(set, result);
}

TEST_P(ProtocolPropertyTest, TwoPlPiSerializableWithAbortRecovery) {
  const TransactionSet set = Generate();
  const SimResult result =
      RunWith(set, ProtocolKind::kTwoPlPi, kHorizon,
              DeadlockPolicy::kAbortLowestPriority);
  ASSERT_TRUE(result.status.ok());
  EXPECT_TRUE(IsSerializable(result.history));
  ExpectEngineConservation(set, result);
}

TEST_P(ProtocolPropertyTest, PcpDaAvoidsBlockingRwPcpSuffers) {
  // The paper's comparative claim, in aggregate: blocking events under
  // PCP-DA never exceed RW-PCP's on the same workload (schedules diverge,
  // so we compare the episode counts, which the paper's argument makes
  // one-sided).
  const TransactionSet set = Generate();
  const SimResult da = RunWith(set, ProtocolKind::kPcpDa, kHorizon);
  const SimResult rw = RunWith(set, ProtocolKind::kRwPcp, kHorizon);
  if (!da.metrics.AllDeadlinesMet() || !rw.metrics.AllDeadlinesMet()) {
    GTEST_SKIP() << "overloaded run";
  }
  std::int64_t da_blocks = 0;
  std::int64_t rw_blocks = 0;
  for (SpecId i = 0; i < set.size(); ++i) {
    da_blocks += da.metrics.per_spec[static_cast<std::size_t>(i)]
                     .ceiling_blocks +
                 da.metrics.per_spec[static_cast<std::size_t>(i)]
                     .conflict_blocks;
    rw_blocks += rw.metrics.per_spec[static_cast<std::size_t>(i)]
                     .ceiling_blocks +
                 rw.metrics.per_spec[static_cast<std::size_t>(i)]
                     .conflict_blocks;
  }
  EXPECT_LE(da_blocks, rw_blocks);
}


TEST_P(ProtocolPropertyTest, OccBcProperties) {
  const TransactionSet set = Generate();
  const SimResult result = RunWith(set, ProtocolKind::kOccBc, kHorizon);
  ASSERT_TRUE(result.status.ok());
  EXPECT_FALSE(result.deadlock_detected);
  EXPECT_TRUE(IsSerializable(result.history));
  // Optimistic execution never blocks.
  for (const auto& m : result.metrics.per_spec) {
    EXPECT_EQ(m.blocked_ticks, 0);
  }
  ExpectEngineConservation(set, result);
}

TEST_P(ProtocolPropertyTest, OccDaProperties) {
  const TransactionSet set = Generate();
  const SimResult bc = RunWith(set, ProtocolKind::kOccBc, kHorizon);
  const SimResult da = RunWith(set, ProtocolKind::kOccDa, kHorizon);
  ASSERT_TRUE(da.status.ok());
  EXPECT_FALSE(da.deadlock_detected);
  EXPECT_TRUE(IsSerializable(da.history));
  ExpectEngineConservation(set, da);
  // Dynamic adjustment of serialization order: never MORE restarts than
  // broadcast commit on the same workload.
  EXPECT_LE(da.metrics.TotalRestarts(), bc.metrics.TotalRestarts());
}

TEST_P(ProtocolPropertyTest, SerialWitnessReplaysForEveryProtocol) {
  // The strongest end-to-end check: every read of every committed
  // transaction must match a serial re-execution in the witness order.
  const TransactionSet set = Generate();
  for (ProtocolKind kind : AllProtocolKinds()) {
    const SimResult result =
        RunWith(set, kind, kHorizon, DeadlockPolicy::kAbortLowestPriority);
    const auto replay = ReplaySerialWitness(result.history,
                                            set.item_count());
    EXPECT_TRUE(replay.ok())
        << ToString(kind) << ": "
        << (replay.serializable && !replay.mismatches.empty()
                ? replay.mismatches[0].DebugString()
                : std::string("not serializable"));
  }
}

std::vector<SweepParam> SweepParams() {
  std::vector<SweepParam> params;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    for (double u : {0.3, 0.6, 0.85}) {
      for (double w : {0.1, 0.4}) {
        params.push_back({seed, u, w});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ProtocolPropertyTest,
                         ::testing::ValuesIn(SweepParams()), ParamName);

}  // namespace
}  // namespace pcpda
