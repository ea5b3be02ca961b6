#include "fuzz/oracles.h"

#include <map>
#include <sstream>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "common/check.h"
#include "common/strings.h"
#include "history/replay_checker.h"
#include "history/serialization_graph.h"
#include "sched/simulator.h"

namespace pcpda {
namespace {

Tick ResolveHorizon(const Scenario& scenario, const OracleOptions& options) {
  if (options.horizon > 0) return options.horizon;
  if (scenario.horizon > 0) return scenario.horizon;
  const Tick hyper = scenario.set.Hyperperiod();
  return hyper > 0 && hyper < kNoTick / 2 ? 2 * hyper : 0;
}

std::vector<ProtocolKind> ResolveKinds(const OracleOptions& options) {
  return options.protocols.empty() ? AllProtocolKinds() : options.protocols;
}

/// One digest line of tick `tick`, which `record` describes.
std::string RenderTick(Tick tick, const TickRecord& record) {
  std::string out = StrFormat(
      "t=%lld run=%lld spec=%d kind=%d ceil=%s",
      static_cast<long long>(tick),
      static_cast<long long>(record.running_job), record.running_spec,
      static_cast<int>(record.running_kind),
      record.ceiling.DebugString().c_str());
  for (const BlockedSample& blocked : record.blocked) {
    std::vector<std::string> ids;
    for (JobId id : blocked.blockers) {
      ids.push_back(StrFormat("%lld", static_cast<long long>(id)));
    }
    out += StrFormat(" blocked{job=%lld item=d%d mode=%s reason=%s by=[%s]}",
                     static_cast<long long>(blocked.job), blocked.item,
                     ToString(blocked.mode), ToString(blocked.reason),
                     Join(ids, ",").c_str());
  }
  return out;
}

std::size_t FirstDivergence(const std::string& a, const std::string& b) {
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  return at;
}

/// True when every member RenderRunDigest reads is equal. The defaulted
/// comparisons cover a superset of the rendered fields (lock_decisions,
/// trace capacity, pending history ops, ...), so equal runs always render
/// equal digests; a difference only in an unrendered field falls through
/// to the digest comparison, which then reports nothing.
bool SameObservables(const SimResult& a, const SimResult& b) {
  return a.status == b.status && a.audit == b.audit &&
         a.metrics == b.metrics && a.trace == b.trace &&
         a.history == b.history;
}

/// The restart- and blocking-blind analysis AnalysisDefect::kOptimisticRta
/// feeds the response-time analysis.
BlockingAnalysis Optimistic(BlockingAnalysis analysis) {
  analysis.bounded = true;
  for (SpecBlocking& sb : analysis.per_spec) {
    sb.worst_blocking = 0;
    sb.bounded = true;
    sb.restart_sources.clear();
  }
  return analysis;
}

class OracleRunner {
 public:
  OracleRunner(const Scenario& scenario, const OracleOptions& options)
      : scenario_(scenario), options_(options) {}

  OracleVerdict Evaluate(const std::vector<SimResult>& results) {
    const Tick horizon = ResolveHorizon(scenario_, options_);
    if (horizon <= 0) {
      Fail("config", "",
           "no usable horizon: scenario has none and no finite "
           "hyperperiod");
      return std::move(verdict_);
    }
    const std::vector<ProtocolKind> kinds = ResolveKinds(options_);
    const std::size_t repeats = options_.check_determinism ? 2 : 1;
    PCPDA_CHECK_MSG(results.size() == kinds.size() * repeats,
                    "results are not in PlanOracleRuns order");

    const bool fault_free = scenario_.faults.faults.empty();
    std::map<std::string, std::int64_t> released_by_protocol;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const ProtocolKind kind = kinds[k];
      const SimResult& result = results[k * repeats];
      CheckOne(kind, horizon, result, fault_free);
      if (result.status.ok()) {
        released_by_protocol[ToString(kind)] =
            result.metrics.TotalReleased();
      }
      if (options_.check_determinism &&
          !SameObservables(result, results[k * repeats + 1])) {
        const SimResult& again = results[k * repeats + 1];
        const std::string first = RenderRunDigest(scenario_.set, result);
        const std::string second = RenderRunDigest(scenario_.set, again);
        if (first != second) {
          const std::size_t at = FirstDivergence(first, second);
          Fail("determinism", ToString(kind),
               StrFormat("re-run diverges at digest byte %zu: ...%s... "
                         "vs ...%s...",
                         at, first.substr(at, 48).c_str(),
                         second.substr(at, 48).c_str()));
        }
      }
    }
    if (fault_free && released_by_protocol.size() > 1) {
      const auto& first = *released_by_protocol.begin();
      for (const auto& [name, released] : released_by_protocol) {
        if (released != first.second) {
          Fail("released-equal", "",
               StrFormat("%s released %lld jobs but %s released %lld in "
                         "a fault-free run",
                         first.first.c_str(),
                         static_cast<long long>(first.second),
                         name.c_str(), static_cast<long long>(released)));
          break;
        }
      }
    }
    return std::move(verdict_);
  }

 private:
  void Fail(const char* oracle, std::string protocol, std::string detail) {
    verdict_.failures.push_back(
        OracleFailure{oracle, std::move(protocol), std::move(detail)});
  }

  void CheckOne(ProtocolKind kind, Tick horizon, const SimResult& result,
                bool fault_free) {
    const char* name = ToString(kind);
    const bool ceiling = TraitsOf(kind).ceiling_rule != CeilingRule::kNone;

    // (a) the per-tick invariant auditor accepted every tick.
    if (!result.audit.ok()) {
      const auto& violations = result.audit.violations;
      Fail("audit", name,
           StrFormat("%zu violation(s), first: %s", violations.size(),
                     violations.empty()
                         ? "(suppressed)"
                         : violations.front().DebugString().c_str()));
    }
    if (!result.status.ok()) {
      Fail("config", name, result.status.ToString());
      return;  // The run never completed; nothing further to check.
    }

    // (b) committed history serializable, and the serial witness replays;
    // both read one build of SG(H).
    const auto graph = SerializationGraph::Build(result.history);
    const auto check = graph.CheckAcyclic();
    if (!check.serializable) {
      std::vector<std::string> ids;
      for (JobId id : check.cycle) {
        ids.push_back(StrFormat("%lld", static_cast<long long>(id)));
      }
      Fail("serializability", name,
           "serialization graph cycle: " + Join(ids, " -> "));
    } else {
      const ReplayResult replay = ReplaySerialWitness(
          result.history, scenario_.set.item_count(), graph, check);
      if (!replay.ok()) {
        Fail("replay", name,
             replay.mismatches.empty()
                 ? "witness extraction failed"
                 : replay.mismatches.front().DebugString());
      }
    }

    // (c) metamorphic bounds.
    const RunMetrics& metrics = result.metrics;
    if (ceiling && (result.deadlock_detected || metrics.deadlocks > 0)) {
      Fail("deadlock-free", name,
           StrFormat("ceiling protocol hit %lld wait-for cycle(s)",
                     static_cast<long long>(metrics.deadlocks)));
    }
    if (ceiling && fault_free && metrics.TotalRestarts() > 0) {
      Fail("no-restarts", name,
           StrFormat("ceiling protocol restarted %lld job(s) without "
                     "injected faults",
                     static_cast<long long>(metrics.TotalRestarts())));
    }
    if (fault_free) {
      const BlockingAnalysis analysis = ComputeBlocking(scenario_.set, kind);
      if (TraitsOf(kind).analyzable()) {
        CheckBlockingBound(kind, analysis, metrics);
      }
      CheckSchedSoundness(kind, analysis, metrics);
    }
    CheckMetricsSane(name, horizon, metrics);
  }

  void CheckBlockingBound(ProtocolKind kind,
                          const BlockingAnalysis& analysis,
                          const RunMetrics& metrics) {
    // Every protocol whose traits report a finite bound (all but
    // 2PL-PI); for PCP-DA the guard ablation can only loosen behavior
    // the other oracles see, so the bound stays meaningful under the
    // test hook.
    const bool zeroed =
        options_.analysis_defect == AnalysisDefect::kZeroBlockingBound;
    for (SpecId i = 0;
         i < static_cast<SpecId>(metrics.per_spec.size()); ++i) {
      const Tick bound = zeroed ? 0 : analysis.B(i);
      const Tick observed =
          metrics.per_spec[static_cast<std::size_t>(i)]
              .max_effective_blocking;
      if (observed > bound) {
        Fail("blocking-bound", ToString(kind),
             StrFormat("%s blocked %lld ticks, analytical bound B=%lld",
                       scenario_.set.spec(i).name.c_str(),
                       static_cast<long long>(observed),
                       static_cast<long long>(bound)));
      }
    }
  }

  /// A deadline miss in a fault-free simulation run refutes a
  /// kSchedulable claim — the analysis must never be optimistic.
  /// kUnknown/kUnschedulable claims assert nothing about the run.
  void CheckSchedSoundness(ProtocolKind kind,
                           const BlockingAnalysis& analysis,
                           const RunMetrics& metrics) {
    const SchedAnalysis sched =
        options_.analysis_defect == AnalysisDefect::kOptimisticRta
            ? AnalyzeResponseTimes(scenario_.set, Optimistic(analysis))
            : AnalyzeResponseTimes(scenario_.set, analysis);
    for (SpecId i = 0;
         i < static_cast<SpecId>(metrics.per_spec.size()); ++i) {
      const SpecSchedResult& sr =
          sched.per_spec[static_cast<std::size_t>(i)];
      if (sr.verdict != SchedVerdict::kSchedulable) continue;
      const std::int64_t misses =
          metrics.per_spec[static_cast<std::size_t>(i)].deadline_misses;
      if (misses > 0) {
        Fail("sched-sound", ToString(kind),
             StrFormat("%s missed %lld deadline(s) but the analysis "
                       "claimed R=%lld within the deadline",
                       scenario_.set.spec(i).name.c_str(),
                       static_cast<long long>(misses),
                       static_cast<long long>(sr.response)));
      }
    }
  }

  void CheckMetricsSane(const char* name, Tick horizon,
                        const RunMetrics& metrics) {
    const double miss_ratio = metrics.MissRatio();
    if (miss_ratio < 0.0 || miss_ratio > 1.0) {
      Fail("metrics-sane", name,
           StrFormat("miss ratio %g outside [0, 1]", miss_ratio));
    }
    if (metrics.TotalCommitted() > metrics.TotalReleased()) {
      Fail("metrics-sane", name,
           StrFormat("committed %lld > released %lld",
                     static_cast<long long>(metrics.TotalCommitted()),
                     static_cast<long long>(metrics.TotalReleased())));
    }
    Tick busy = 0;
    for (const SpecMetrics& spec : metrics.per_spec) {
      busy += spec.busy_ticks;
      if (spec.committed + spec.dropped + spec.pending_at_horizon >
          spec.released) {
        Fail("metrics-sane", name,
             StrFormat("per-spec outcomes %lld exceed releases %lld",
                       static_cast<long long>(spec.committed +
                                              spec.dropped +
                                              spec.pending_at_horizon),
                       static_cast<long long>(spec.released)));
      }
      if (spec.max_effective_blocking > spec.effective_blocking_ticks) {
        Fail("metrics-sane", name,
             "per-instance max effective blocking exceeds the spec "
             "total");
      }
    }
    const bool halted =
        metrics.halted_on_deadlock || metrics.halted_on_miss;
    if (busy + metrics.idle_ticks > horizon ||
        (!halted && busy + metrics.idle_ticks != horizon)) {
      Fail("metrics-sane", name,
           StrFormat("busy %lld + idle %lld vs horizon %lld",
                     static_cast<long long>(busy),
                     static_cast<long long>(metrics.idle_ticks),
                     static_cast<long long>(horizon)));
    }
  }

  const Scenario& scenario_;
  const OracleOptions& options_;
  OracleVerdict verdict_;
};

}  // namespace

std::string RenderRunDigest(const TransactionSet& set,
                            const SimResult& result) {
  std::ostringstream out;
  out << "status: " << result.status.ToString() << "\n";
  out << "audit: " << result.audit.DebugString() << "\n";
  out << "[metrics]\n" << result.metrics.DebugString(set) << "\n";
  out << "[events]\n" << result.trace.DebugString() << "\n";
  out << "[ticks]\n";
  for (const TickSpan& span : result.trace.spans()) {
    for (Tick t = span.begin; t < span.end; ++t) {
      out << RenderTick(t, span.record) << "\n";
    }
  }
  out << "[history]\n" << result.history.DebugString() << "\n";
  return out.str();
}

std::string OracleFailure::DebugString() const {
  std::string out = "[" + oracle + "]";
  if (!protocol.empty()) out += " " + protocol;
  return out + ": " + detail;
}

std::string OracleVerdict::DebugString() const {
  if (ok()) return "all oracles passed";
  std::vector<std::string> lines;
  for (const OracleFailure& failure : failures) {
    lines.push_back(failure.DebugString());
  }
  return Join(lines, "\n");
}

OracleVerdict RunOracles(const Scenario& scenario,
                         const OracleOptions& options) {
  const CompiledPlan plan =
      CompiledPlan::Compile(scenario, {.lint = false}).value();
  const std::vector<RunSpec> specs = PlanOracleRuns(plan, options);
  std::vector<SimResult> results;
  results.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    results.push_back(BatchRunner::RunOne(spec));
  }
  return EvaluateOracleRuns(scenario, options, results);
}

std::vector<RunSpec> PlanOracleRuns(const Scenario& scenario,
                                    const OracleOptions& options) {
  const Tick horizon = ResolveHorizon(scenario, options);
  if (horizon <= 0) return {};
  const int repeats = options.check_determinism ? 2 : 1;
  std::vector<RunSpec> specs;
  for (ProtocolKind kind : ResolveKinds(options)) {
    for (int repeat = 0; repeat < repeats; ++repeat) {
      RunSpec spec;
      spec.scenario = &scenario;
      spec.protocol = kind;
      spec.pcp_da = options.pcp_da;
      spec.options.horizon = horizon;
      spec.options.faults = scenario.faults;
      spec.options.audit = true;
      spec.options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

std::vector<RunSpec> PlanOracleRuns(const CompiledPlan& plan,
                                    const OracleOptions& options) {
  std::vector<RunSpec> specs = PlanOracleRuns(plan.scenario(), options);
  for (RunSpec& spec : specs) spec.plan = &plan;
  return specs;
}

OracleVerdict EvaluateOracleRuns(const Scenario& scenario,
                                 const OracleOptions& options,
                                 const std::vector<SimResult>& results) {
  return OracleRunner(scenario, options).Evaluate(results);
}

bool Reproduces(const Scenario& scenario, const OracleOptions& options,
                const OracleFailure& failure) {
  OracleOptions restricted = options;
  // The determinism oracle is the only one that needs the double run.
  restricted.check_determinism = failure.oracle == "determinism";
  if (!failure.protocol.empty()) {
    for (ProtocolKind kind : AllProtocolKinds()) {
      if (failure.protocol == ToString(kind)) {
        restricted.protocols = {kind};
        break;
      }
    }
  }
  const OracleVerdict verdict = RunOracles(scenario, restricted);
  for (const OracleFailure& got : verdict.failures) {
    if (got.oracle != failure.oracle) continue;
    if (failure.protocol.empty() || got.protocol == failure.protocol) {
      return true;
    }
  }
  return false;
}

}  // namespace pcpda
