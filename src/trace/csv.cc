#include "trace/csv.h"

#include <vector>

#include "common/strings.h"

namespace pcpda {

std::string TraceEventsCsv(const Trace& trace) {
  std::vector<std::string> lines;
  lines.push_back("tick,kind,job,spec,instance,item,mode,reason,others,note");
  for (const TraceEvent& e : trace.events()) {
    std::vector<std::string> others;
    others.reserve(e.others.size());
    for (JobId j : e.others) {
      others.push_back(StrFormat("%lld", static_cast<long long>(j)));
    }
    lines.push_back(StrFormat(
        "%lld,%s,%lld,%d,%d,%d,%s,%s,%s,%s",
        static_cast<long long>(e.tick), ToString(e.kind),
        static_cast<long long>(e.job), e.spec, e.instance, e.item,
        ToString(e.mode), ToString(e.reason),
        Join(others, ";").c_str(), e.note.c_str()));
  }
  return Join(lines, "\n") + "\n";
}

std::string ScheduleCsv(const TransactionSet& set, const Trace& trace) {
  std::vector<std::string> lines;
  lines.push_back("tick,running_spec,running_kind,ceiling_level,blocked");
  for (const TickSpan& span : trace.spans()) {
    const TickRecord& r = span.record;
    std::vector<std::string> blocked;
    blocked.reserve(r.blocked.size());
    for (const BlockedSample& b : r.blocked) {
      blocked.push_back(set.spec(b.spec).name);
    }
    const char* kind = r.running_kind == StepKind::kRead    ? "read"
                       : r.running_kind == StepKind::kWrite ? "write"
                                                            : "compute";
    // Everything after the tick column is the same for the whole span.
    const std::string rest = StrFormat(
        ",%s,%s,%s,%s",
        r.running_spec == kInvalidSpec
            ? "-"
            : set.spec(r.running_spec).name.c_str(),
        r.running_spec == kInvalidSpec ? "-" : kind,
        r.ceiling.is_dummy()
            ? std::string("-").c_str()
            : StrFormat("%d", r.ceiling.level()).c_str(),
        Join(blocked, ";").c_str());
    for (Tick t = span.begin; t < span.end; ++t) {
      lines.push_back(StrFormat("%lld", static_cast<long long>(t)) + rest);
    }
  }
  return Join(lines, "\n") + "\n";
}

std::string MetricsCsv(const TransactionSet& set,
                       const RunMetrics& metrics) {
  std::vector<std::string> lines;
  lines.push_back(
      "spec,released,committed,missed,dropped,restarts,busy,blocked,"
      "effective_blocking,max_effective_blocking,preempted,ceiling_blocks,"
      "conflict_blocks,max_response,mean_response");
  for (SpecId i = 0;
       i < set.size() &&
       static_cast<std::size_t>(i) < metrics.per_spec.size();
       ++i) {
    const SpecMetrics& m = metrics.per_spec[static_cast<std::size_t>(i)];
    lines.push_back(StrFormat(
        "%s,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,%lld,"
        "%lld,%.3f",
        set.spec(i).name.c_str(), static_cast<long long>(m.released),
        static_cast<long long>(m.committed),
        static_cast<long long>(m.deadline_misses),
        static_cast<long long>(m.dropped),
        static_cast<long long>(m.restarts),
        static_cast<long long>(m.busy_ticks),
        static_cast<long long>(m.blocked_ticks),
        static_cast<long long>(m.effective_blocking_ticks),
        static_cast<long long>(m.max_effective_blocking),
        static_cast<long long>(m.preempted_ticks),
        static_cast<long long>(m.ceiling_blocks),
        static_cast<long long>(m.conflict_blocks),
        static_cast<long long>(m.max_response), m.MeanResponse()));
  }
  return Join(lines, "\n") + "\n";
}

}  // namespace pcpda
