#ifndef PCPDA_FUZZ_ORACLES_H_
#define PCPDA_FUZZ_ORACLES_H_

#include <string>
#include <vector>

#include "core/pcp_da.h"
#include "protocols/factory.h"
#include "runner/batch_runner.h"
#include "workload/scenario.h"

namespace pcpda {

/// Seeded defects for the analysis oracles, driven by `pcpda_fuzz
/// --break=bound|rta`. Each weakens one analytical result so the
/// corresponding oracle must fire on ordinary scenarios — the self-test
/// that proves the oracle is alive.
enum class AnalysisDefect : std::uint8_t {
  kNone,
  /// blocking-bound compares observed blocking against 0 instead of B_i.
  kZeroBlockingBound,
  /// sched-sound runs the RTA with B_i = 0 and no restart costs — the
  /// classic optimistic analysis that ignores data contention.
  kOptimisticRta,
};

/// Configuration for one oracle-stack evaluation of a scenario.
struct OracleOptions {
  /// Simulation horizon; 0 falls back to the scenario's own horizon and
  /// then to twice its hyperperiod.
  Tick horizon = 0;
  /// Protocols to run; empty means all 8 kinds from the factory.
  std::vector<ProtocolKind> protocols;
  /// Options for the PCP-DA instance. The fuzzer's acceptance test turns
  /// the locking-condition guards off here to prove the oracles catch an
  /// intentionally broken protocol build.
  PcpDaOptions pcp_da;
  /// Re-run every simulation a second time and compare the two results
  /// field by field (nondeterminism oracle); RenderRunDigest locates a
  /// divergence. Doubles the simulation cost; the shrinker turns it off
  /// while minimizing a failure found by a cheaper oracle.
  bool check_determinism = true;
  /// Deliberately weakened analysis for the --break= self-tests; part of
  /// the options so shrinking and reproduction carry the defect along.
  AnalysisDefect analysis_defect = AnalysisDefect::kNone;
};

/// One oracle violation. `oracle` is a stable identifier the shrinker
/// matches on while minimizing:
///
///   config           simulator rejected the run configuration
///   audit            per-tick invariant auditor reported violations
///   serializability  committed history has a cyclic serialization graph
///   replay           serial-witness replay observed a mismatched read
///   deadlock-free    a ceiling protocol hit a wait-for cycle
///   no-restarts      a ceiling protocol restarted jobs in a fault-free run
///   blocking-bound   fault-free per-job blocking exceeded the analytical
///                    B_i (every protocol with a finite bound)
///   sched-sound      the response-time analysis claimed a spec
///                    schedulable but a fault-free run missed a deadline
///   metrics-sane     counter bookkeeping inconsistent (ratios, totals)
///   released-equal   fault-free runs released different job counts
///                    across protocols
///   determinism      re-running the same configuration diverged
///
/// The fuzzer additionally emits findings with oracle ids outside this
/// table: "generator" (MakeScenario itself failed) and "lint" (the
/// static analyzer proves a generated scenario invalid before any
/// simulation — a generator/analyzer disagreement; see lint/lint.h).
struct OracleFailure {
  std::string oracle;
  /// Protocol name, empty for cross-protocol oracles (released-equal).
  std::string protocol;
  std::string detail;

  std::string DebugString() const;
};

/// Everything the oracle stack concluded about one scenario.
struct OracleVerdict {
  std::vector<OracleFailure> failures;

  bool ok() const { return failures.empty(); }
  std::string DebugString() const;
};

/// Every observable byte of one run as text: status, audit report, metrics,
/// trace events, per-tick schedule with blocked samples, and committed
/// history. The determinism oracle renders both runs only when they differ
/// structurally and reports the first differing digest byte;
/// tests/determinism_test.cc pins it against a recorded golden.
std::string RenderRunDigest(const TransactionSet& set,
                            const SimResult& result);

/// Runs `scenario` through every configured protocol and applies the
/// oracle stack:
///   (a) the per-tick invariant auditor accepts every tick;
///   (b) the committed history is conflict serializable and survives the
///       serial-witness replay;
///   (c) metamorphic bounds: ceiling protocols never deadlock, fault-free
///       ceiling runs never restart, fault-free runs respect the
///       protocol's analytical worst-case blocking bound and never miss a
///       deadline the response-time analysis claimed safe, counters stay
///       internally consistent, and fault-free runs release identical job
///       counts under every protocol;
///   (d) re-running the same configuration is bit-identical.
/// All failures are collected (no early exit) so the caller can report
/// every protocol the scenario broke.
OracleVerdict RunOracles(const Scenario& scenario,
                         const OracleOptions& options);

/// The simulation jobs RunOracles would execute for `scenario`: per
/// configured protocol one run, plus an adjacent re-run when
/// check_determinism is set. Empty when the scenario has no usable
/// horizon (EvaluateOracleRuns then reports the config failure). The
/// returned specs point into `scenario`, which must outlive them, and
/// carry no plan, so each run compiles the scenario itself.
std::vector<RunSpec> PlanOracleRuns(const Scenario& scenario,
                                    const OracleOptions& options);

/// Compiled variant: the same fan-out with every spec sharing `plan` —
/// one ceiling/calendar lowering for all protocol x repeat runs instead
/// of one per run. The specs point into `plan` (and its owned scenario),
/// which must outlive them. Results are byte-identical to the Scenario
/// overload on the scenario the plan was compiled from.
std::vector<RunSpec> PlanOracleRuns(const CompiledPlan& plan,
                                    const OracleOptions& options);

/// Applies the oracle stack to precomputed results, which must be in
/// PlanOracleRuns order (the caller typically produced them through a
/// BatchRunner). Verdicts are byte-identical to RunOracles regardless of
/// how many jobs computed the results.
OracleVerdict EvaluateOracleRuns(const Scenario& scenario,
                                 const OracleOptions& options,
                                 const std::vector<SimResult>& results);

/// True when re-checking `scenario` still produces a failure of the same
/// oracle (and, for protocol-specific oracles, the same protocol) as
/// `failure`. The shrinker's reproduction predicate: restricting the
/// check to the failing protocol keeps minimization cheap.
bool Reproduces(const Scenario& scenario, const OracleOptions& options,
                const OracleFailure& failure);

}  // namespace pcpda

#endif  // PCPDA_FUZZ_ORACLES_H_
