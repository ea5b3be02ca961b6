#ifndef PCPDA_ANALYSIS_REPORT_H_
#define PCPDA_ANALYSIS_REPORT_H_

#include <string>
#include <vector>

#include "analysis/blocking.h"
#include "analysis/response_time.h"
#include "common/json.h"
#include "protocols/factory.h"
#include "txn/spec.h"

namespace pcpda {

/// A text table comparing BTS_i/B_i across the analyzable protocols — the
/// Section-9 comparison the paper makes between PCP-DA and RW-PCP.
std::string BlockingComparisonTable(const TransactionSet& set);

/// A full offline schedulability report: per-protocol B_i, the
/// Liu–Layland verdicts and the response-time verdicts. Requires a fully
/// periodic set.
std::string SchedulabilityReport(const TransactionSet& set);

/// Blocking bounds plus the schedulability verdict under one protocol.
struct ProtocolAnalysis {
  ProtocolKind protocol = ProtocolKind::kPcpDa;
  BlockingAnalysis blocking;
  SchedAnalysis sched;
};

/// The machine-consumable analysis of one transaction set across a list
/// of protocols — the payload behind `pcpda_analyze` and the campaign
/// analysis pass.
struct AnalysisReport {
  std::vector<ProtocolAnalysis> per_protocol;

  /// True iff some analyzed protocol carries the given verdict.
  bool AnyVerdict(SchedVerdict verdict) const;
};

/// Runs ComputeBlocking + AnalyzeResponseTimes for each requested kind.
/// Unbounded kinds (2PL-PI) are legal inputs: their specs come back
/// `bounded = false` with kUnknown verdicts.
AnalysisReport AnalyzeSet(const TransactionSet& set,
                          const std::vector<ProtocolKind>& kinds);

/// Human-readable rendering, one block per protocol.
std::string RenderAnalysisText(const std::string& file,
                               const TransactionSet& set,
                               const AnalysisReport& report);

/// Writes one JSON object per file to `json`:
///   {"file": ..., "protocols": [{"protocol": ..., "verdict": ...,
///    "bounded": ..., "specs": [{"name": ..., "B": <int|null>,
///    "response": <int|null>, "verdict": ..., "bts": [...],
///    "restarts": [{"spec": ..., "per_release": ...}]}]}]}
void RenderAnalysisJson(const std::string& file, const TransactionSet& set,
                        const AnalysisReport& report, JsonWriter& json);

}  // namespace pcpda

#endif  // PCPDA_ANALYSIS_REPORT_H_
