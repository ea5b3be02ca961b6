#include <gtest/gtest.h>

#include "fault/fault_plan.h"
#include "history/serialization_graph.h"
#include "protocols/occ.h"
#include "protocols/rw_pcp.h"
#include "sched/auditor.h"
#include "test_util.h"
#include "workload/generator.h"
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

/// RunWith plus a fault plan (audit stays on).
SimResult RunFaulty(const TransactionSet& set, ProtocolKind kind,
                    Tick horizon, FaultConfig faults,
                    DeadlockPolicy deadlock_policy =
                        DeadlockPolicy::kHalt) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = horizon;
  options.deadlock_policy = deadlock_policy;
  options.audit = true;
  options.faults = std::move(faults);
  Simulator sim(PlanOf(set), protocol.get(), options);
  return sim.Run();
}

FaultSpec OneShot(FaultKind kind, SpecId spec, Tick at) {
  FaultSpec fault;
  fault.kind = kind;
  fault.spec = spec;
  fault.at = at;
  return fault;
}

// --- Configuration validation ---------------------------------------------

TEST(FaultConfigTest, RejectsMissingTrigger) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  FaultConfig config;
  config.faults.push_back(FaultSpec{});  // neither at nor probability
  EXPECT_FALSE(ValidateFaultConfig(config, set).ok());
}

TEST(FaultConfigTest, RejectsBothTriggers) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  FaultSpec fault = OneShot(FaultKind::kAbort, 0, 2);
  fault.probability = 0.5;
  FaultConfig config;
  config.faults.push_back(fault);
  EXPECT_FALSE(ValidateFaultConfig(config, set).ok());
}

TEST(FaultConfigTest, RejectsOutOfRangeSpecAndProbability) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  FaultConfig config;
  config.faults.push_back(OneShot(FaultKind::kAbort, 7, 2));
  EXPECT_FALSE(ValidateFaultConfig(config, set).ok());
  config.faults[0].spec = 0;
  config.faults[0].at = kNoTick;
  config.faults[0].probability = 1.5;
  EXPECT_FALSE(ValidateFaultConfig(config, set).ok());
}

TEST(FaultConfigTest, BadConfigSurfacesInRunStatus) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  FaultConfig config;
  config.faults.push_back(FaultSpec{});
  const SimResult result =
      RunFaulty(set, ProtocolKind::kPcpDa, 10, config);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(result.metrics.TotalReleased(), 0);
}

// --- Job faults -----------------------------------------------------------

TEST(FaultTest, AbortFaultRestartsAndCleansUp) {
  TransactionSet set = MakeSet(
      {{.name = "T", .body = {Read(0, 2), Compute(2)}}});
  FaultConfig config;
  config.faults.push_back(OneShot(FaultKind::kAbort, 0, 1));
  const SimResult result = RunFaulty(set, ProtocolKind::kPcpDa, 20, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.injected_aborts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].restarts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  // The restart re-runs the full body: 1 aborted tick + 4 fresh ones.
  EXPECT_EQ(CommitTime(result, 0, 0), 5);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

TEST(FaultTest, RestartInCsWaitsForACriticalSection) {
  TransactionSet set = MakeSet(
      {{.name = "T", .offset = 2, .body = {Read(0, 2), Compute(1)}}});
  FaultConfig config;
  // Armed from t=0 but the job only appears at t=2 and only holds the
  // read lock from t=3 on (admission happens inside the execute phase).
  config.faults.push_back(OneShot(FaultKind::kRestartInCs, 0, 0));
  const SimResult result = RunFaulty(set, ProtocolKind::kPcpDa, 20, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.injected_restarts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].restarts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  const auto faults = EventsOfKind(result.trace, TraceKind::kFault);
  ASSERT_EQ(faults.size(), 1u);
  EXPECT_EQ(faults[0].tick, 3);
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

TEST(FaultTest, AbortFaultSkippedForEarlyReleaseProtocol) {
  TransactionSet set = MakeSet(
      {{.name = "T", .body = {Write(0, 1), Compute(2)}}});
  FaultConfig config;
  config.faults.push_back(OneShot(FaultKind::kAbort, 0, 1));
  const SimResult result = RunFaulty(set, ProtocolKind::kCcp, 20, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.injected_aborts, 0);
  EXPECT_EQ(result.metrics.faults.skipped_aborts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].restarts, 0);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
}

TEST(FaultTest, OverrunDelaysCommit) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(3)}}});
  FaultSpec fault = OneShot(FaultKind::kOverrun, 0, 1);
  fault.extra = 2;
  FaultConfig config;
  config.faults.push_back(fault);
  const SimResult result = RunFaulty(set, ProtocolKind::kPcpDa, 10, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.overruns, 1);
  EXPECT_EQ(result.metrics.faults.overrun_ticks, 2);
  EXPECT_EQ(CommitTime(result, 0, 0), 5);  // 3 nominal + 2 injected
}

// --- Arrival faults -------------------------------------------------------

TEST(FaultTest, DelayFaultDefersTheRelease) {
  TransactionSet set =
      MakeSet({{.name = "T", .period = 10, .body = {Compute(1)}}});
  FaultSpec fault = OneShot(FaultKind::kDelayArrival, 0, 0);
  fault.extra = 3;
  FaultConfig config;
  config.faults.push_back(fault);
  const SimResult result = RunFaulty(set, ProtocolKind::kPcpDa, 10, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.delayed_arrivals, 1);
  EXPECT_GE(result.metrics.faults.delay_ticks, 1);
  EXPECT_LE(result.metrics.faults.delay_ticks, 3);
  const auto arrivals = EventsOfKind(result.trace, TraceKind::kArrival);
  ASSERT_EQ(arrivals.size(), 1u);
  EXPECT_EQ(arrivals[0].tick, result.metrics.faults.delay_ticks);
}

TEST(FaultTest, BurstFaultInjectsExtraReleases) {
  TransactionSet set = MakeSet({{.name = "T", .body = {Compute(1)}}});
  FaultSpec fault = OneShot(FaultKind::kBurstArrival, 0, 0);
  fault.count = 2;
  FaultConfig config;
  config.faults.push_back(fault);
  const SimResult result = RunFaulty(set, ProtocolKind::kPcpDa, 10, config);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.faults.burst_arrivals, 2);
  EXPECT_EQ(result.metrics.per_spec[0].released, 3);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 3);
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

TEST(FaultTest, SameSeedReplaysIdentically) {
  Rng workload_rng(11);
  auto set = GenerateWorkload(WorkloadParams{.num_transactions = 4},
                              workload_rng);
  ASSERT_TRUE(set.ok());
  FaultConfig config;
  config.seed = 42;
  FaultSpec abort;
  abort.kind = FaultKind::kAbort;
  abort.probability = 0.05;
  config.faults.push_back(abort);
  FaultSpec overrun;
  overrun.kind = FaultKind::kOverrun;
  overrun.probability = 0.05;
  overrun.extra = 2;
  config.faults.push_back(overrun);

  const SimResult a = RunFaulty(*set, ProtocolKind::kPcpDa, 400, config);
  const SimResult b = RunFaulty(*set, ProtocolKind::kPcpDa, 400, config);
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_EQ(a.metrics.faults.injected_aborts,
            b.metrics.faults.injected_aborts);
  EXPECT_EQ(a.metrics.faults.overruns, b.metrics.faults.overruns);
  EXPECT_EQ(a.metrics.TotalCommitted(), b.metrics.TotalCommitted());
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
  // The plan actually fired (the probabilities are high enough over 400
  // ticks that a silent no-op plan would be a bug).
  EXPECT_GT(a.metrics.faults.TotalInjected(), 0);
}

// --- Policy cleanup paths (satellite: direct kDrop / deadlock tests) ------

TEST(PolicyTest, DropReleasesLocksAndUndoesInPlaceWrites) {
  // T writes x in place at t=0, then computes past its deadline at t=2.
  TransactionSpec t{.name = "T", .body = {Write(0, 1), Compute(3)}};
  t.relative_deadline = 2;
  TransactionSet set = MakeSet({t});
  auto protocol = MakeProtocol(ProtocolKind::kTwoPlPi);
  SimulatorOptions options;
  options.horizon = 8;
  options.miss_policy = DeadlineMissPolicy::kDrop;
  options.audit = true;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.per_spec[0].dropped, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 0);
  // The drop released the write lock and restored the pre-image.
  EXPECT_EQ(sim.locks().lock_count(), 0u);
  EXPECT_EQ(sim.database().Read(0).writer, kInvalidJob);
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

TEST(PolicyTest, DeadlockVictimRestartsWithLocksReleased) {
  // Crossed write/write order under 2PL-PI: TL locks x then wants y,
  // TH locks y then wants x.
  TransactionSet set = MakeSet({
      {.name = "TH", .offset = 1, .body = {Write(1, 1), Write(0, 1)}},
      {.name = "TL",
       .body = {Write(0, 1), Compute(2), Write(1, 1)}},
  });
  auto protocol = MakeProtocol(ProtocolKind::kTwoPlPi);
  SimulatorOptions options;
  options.horizon = 30;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  options.audit = true;
  Simulator sim(PlanOf(set), protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.metrics.deadlocks, 1);
  EXPECT_FALSE(result.metrics.halted_on_deadlock);
  // TL is the victim: restarted once, then both commit.
  EXPECT_EQ(result.metrics.per_spec[1].restarts, 1);
  EXPECT_EQ(result.metrics.per_spec[0].committed, 1);
  EXPECT_EQ(result.metrics.per_spec[1].committed, 1);
  EXPECT_EQ(sim.locks().lock_count(), 0u);
  EXPECT_TRUE(IsSerializable(result.history));
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

// --- The auditor itself ---------------------------------------------------

/// RW-PCP with a lobotomized ceiling report: scheduling still works (the
/// locking conditions recompute Sysceil internally) but CurrentCeiling()
/// lies, which the sysceil check must catch.
class BrokenCeilingRwPcp : public RwPcp {
 public:
  const char* name() const override { return "RW-PCP-broken"; }
  Priority CurrentCeiling() const override { return Priority::Dummy(); }
};

TEST(AuditorTest, CatchesBrokenCeilingProtocol) {
  TransactionSet set = MakeSet(
      {{.name = "T", .body = {Write(0, 1), Compute(2)}}});
  BrokenCeilingRwPcp protocol;
  const SimResult result = RunWith(set, &protocol, 10);
  ASSERT_FALSE(result.status.ok());
  EXPECT_EQ(result.status.code(), StatusCode::kInternal);
  ASSERT_FALSE(result.audit.ok());
  EXPECT_EQ(result.audit.violations.front().check, "sysceil");
  EXPECT_FALSE(
      EventsOfKind(result.trace, TraceKind::kAuditViolation).empty());
}

// A retired job must leave no wait-for edges behind (the simulator clears
// them in RetireJob). Only the waiter side is checked: a holder that
// retired this tick stays in other waiters' edges until the next
// resolution.
TEST(AuditorTest, FlagsWaitEdgesOfARetiredWaiter) {
  TransactionSet set = MakeSet({{.name = "H", .body = {Read(0)}},
                                {.name = "L", .body = {Read(0)}}});
  const StaticCeilings ceilings(set);
  OccBc protocol;
  const LockTable locks(set.item_count());
  const Database database(set.item_count());
  Job retired(0, &set, 0, 0, 0, kNoTick);
  Job active(1, &set, 1, 0, 0, kNoTick);
  while (!retired.BodyDone()) retired.ExecuteTick();
  retired.MarkCommitted(0);
  const std::vector<const Job*> jobs{&retired, &active};
  const std::vector<AuditBlocked> blocked;
  auto audit = [&](const WaitGraph& waits) {
    AuditScope scope;
    scope.set = &set;
    scope.ceilings = &ceilings;
    scope.protocol = &protocol;
    scope.locks = &locks;
    scope.database = &database;
    scope.waits = &waits;
    scope.jobs = &jobs;
    scope.blocked = &blocked;
    InvariantAuditor auditor;
    auditor.AuditTick(scope);
    return auditor.TakeReport();
  };

  WaitGraph retired_waiter;
  retired_waiter.SetWaits(retired.id(), {active.id()});
  const AuditReport flagged = audit(retired_waiter);
  ASSERT_EQ(flagged.violations.size(), 1u) << flagged.DebugString();
  EXPECT_EQ(flagged.violations[0].check, "wait-retired");
  EXPECT_EQ(flagged.violations[0].detail,
            "job 0 waits on others but is committed");

  WaitGraph retired_holder;
  retired_holder.SetWaits(active.id(), {retired.id()});
  EXPECT_TRUE(audit(retired_holder).ok());
}

TEST(AuditorTest, PaperExamplesAuditCleanUnderAllProtocols) {
  for (const PaperExample& example :
       {Example1(), Example3(), Example4(), Example5()}) {
    for (ProtocolKind kind : AllProtocolKinds()) {
      const SimResult result =
          RunWith(example.set, kind, example.horizon,
                  DeadlockPolicy::kAbortLowestPriority);
      EXPECT_TRUE(result.status.ok())
          << example.name << " under " << ToString(kind) << ": "
          << result.status.ToString() << "\n"
          << result.audit.DebugString();
      EXPECT_EQ(result.audit.ticks_audited, example.horizon);
    }
  }
}

TEST(AuditorTest, FaultStormStaysCleanAndSerializable) {
  Rng workload_rng(5);
  auto set = GenerateWorkload(
      WorkloadParams{.num_transactions = 6, .total_utilization = 0.7},
      workload_rng);
  ASSERT_TRUE(set.ok());
  FaultConfig config;
  config.seed = 9;
  FaultSpec abort;
  abort.kind = FaultKind::kAbort;
  abort.probability = 0.03;
  config.faults.push_back(abort);
  FaultSpec overrun;
  overrun.kind = FaultKind::kOverrun;
  overrun.probability = 0.03;
  overrun.extra = 3;
  config.faults.push_back(overrun);
  FaultSpec delay;
  delay.kind = FaultKind::kDelayArrival;
  delay.probability = 0.1;
  delay.extra = 5;
  config.faults.push_back(delay);

  for (ProtocolKind kind : AllProtocolKinds()) {
    const SimResult result =
        RunFaulty(*set, kind, 600, config,
                  DeadlockPolicy::kAbortLowestPriority);
    ASSERT_TRUE(result.status.ok())
        << ToString(kind) << ": " << result.status.ToString() << "\n"
        << result.audit.DebugString();
    EXPECT_TRUE(IsSerializable(result.history)) << ToString(kind);
    EXPECT_GT(result.metrics.TotalCommitted(), 0) << ToString(kind);
  }
}

// --- Scenario DSL ---------------------------------------------------------

constexpr char kFaultyScenario[] = R"(
scenario demo
horizon 40
priority as-listed
txn T1 period=20
  read x 2
end
txn T2
  write x 1
  compute 2
end
faults seed=7
  abort T2 at=3
  overrun T1 by=2 prob=0.25
  delay * upto=4 prob=0.1
  burst T1 count=2 at=12
end
)";

TEST(ScenarioFaultTest, ParsesFaultsBlock) {
  auto scenario = ParseScenario(kFaultyScenario);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  const FaultConfig& faults = scenario->faults;
  EXPECT_EQ(faults.seed, 7u);
  ASSERT_EQ(faults.faults.size(), 4u);
  EXPECT_EQ(faults.faults[0].kind, FaultKind::kAbort);
  EXPECT_EQ(faults.faults[0].spec, 1);  // resolved to T2
  EXPECT_EQ(faults.faults[0].at, 3);
  EXPECT_EQ(faults.faults[1].kind, FaultKind::kOverrun);
  EXPECT_EQ(faults.faults[1].spec, 0);
  EXPECT_EQ(faults.faults[1].extra, 2);
  EXPECT_DOUBLE_EQ(faults.faults[1].probability, 0.25);
  EXPECT_EQ(faults.faults[2].spec, kInvalidSpec);
  EXPECT_EQ(faults.faults[3].kind, FaultKind::kBurstArrival);
  EXPECT_EQ(faults.faults[3].count, 2);
}

TEST(ScenarioFaultTest, RoundTripsThroughFormat) {
  auto scenario = ParseScenario(kFaultyScenario);
  ASSERT_TRUE(scenario.ok());
  const std::string text = FormatScenario(*scenario);
  auto again = ParseScenario(text);
  ASSERT_TRUE(again.ok()) << again.status().ToString() << "\n" << text;
  ASSERT_EQ(again->faults.faults.size(), scenario->faults.faults.size());
  EXPECT_EQ(again->faults.seed, scenario->faults.seed);
  for (std::size_t i = 0; i < scenario->faults.faults.size(); ++i) {
    const FaultSpec& a = scenario->faults.faults[i];
    const FaultSpec& b = again->faults.faults[i];
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.spec, b.spec) << i;
    EXPECT_EQ(a.at, b.at) << i;
    EXPECT_DOUBLE_EQ(a.probability, b.probability) << i;
    EXPECT_EQ(a.extra, b.extra) << i;
    EXPECT_EQ(a.count, b.count) << i;
  }
}

TEST(ScenarioFaultTest, ParsedPlanDrivesTheSimulator) {
  auto scenario = ParseScenario(kFaultyScenario);
  ASSERT_TRUE(scenario.ok());
  auto protocol = MakeProtocol(ProtocolKind::kPcpDa);
  SimulatorOptions options;
  options.horizon = scenario->horizon;
  options.audit = true;
  options.faults = scenario->faults;
  Simulator sim(PlanOf(scenario->set), protocol.get(), options);
  const SimResult result = sim.Run();
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  // The one-shot abort of T2 must have fired.
  EXPECT_EQ(result.metrics.faults.injected_aborts, 1);
  EXPECT_EQ(result.metrics.faults.burst_arrivals, 2);
  EXPECT_TRUE(result.audit.ok()) << result.audit.DebugString();
}

TEST(ScenarioFaultTest, RejectsUnknownTargetAndBadBlocks) {
  EXPECT_FALSE(ParseScenario("txn T\n compute 1\nend\n"
                             "faults\n abort nosuch at=1\nend\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn T\n compute 1\nend\n"
                             "faults\n abort T at=1 prob=0.5\nend\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn T\n compute 1\nend\n"
                             "faults\n explode T at=1\nend\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn T\n compute 1\nend\n"
                             "faults\n abort T at=1\n")
                   .ok());
  EXPECT_FALSE(ParseScenario("txn T\n compute 1\nend\n"
                             "faults\nend\nfaults\nend\n")
                   .ok());
}

}  // namespace
}  // namespace pcpda
