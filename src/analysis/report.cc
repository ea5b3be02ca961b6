#include "analysis/report.h"

#include <vector>

#include "analysis/rm_bound.h"
#include "common/strings.h"

namespace pcpda {
namespace {

/// Prefixes every line of `text` with `pad` spaces.
std::string Indent(const std::string& text, int pad) {
  const std::string prefix(static_cast<std::size_t>(pad), ' ');
  std::string out = prefix;
  for (char c : text) {
    out += c;
    if (c == '\n') out += prefix;
  }
  return out;
}

}  // namespace

std::string BlockingComparisonTable(const TransactionSet& set) {
  const auto kinds = AnalyzableProtocolKinds();
  std::vector<BlockingAnalysis> analyses;
  analyses.reserve(kinds.size());
  for (ProtocolKind kind : kinds) {
    analyses.push_back(ComputeBlocking(set, kind));
  }

  std::vector<std::string> lines;
  std::string header = PadRight("txn", 8) + PadRight("C_i", 8) +
                       PadRight("Pd_i", 8);
  for (ProtocolKind kind : kinds) {
    header += PadRight(StrFormat("B(%s)", ToString(kind)), 12);
  }
  lines.push_back(header);
  for (SpecId i = 0; i < set.size(); ++i) {
    const TransactionSpec& spec = set.spec(i);
    std::string row =
        PadRight(spec.name, 8) +
        PadRight(StrFormat("%lld",
                           static_cast<long long>(spec.ExecutionTime())),
                 8) +
        PadRight(spec.period > 0
                     ? StrFormat("%lld", static_cast<long long>(spec.period))
                     : std::string("-"),
                 8);
    for (const BlockingAnalysis& analysis : analyses) {
      row += PadRight(
          StrFormat("%lld", static_cast<long long>(analysis.B(i))), 12);
    }
    lines.push_back(row);
  }
  return Join(lines, "\n");
}

std::string SchedulabilityReport(const TransactionSet& set) {
  std::vector<std::string> sections;
  sections.push_back("== worst-case blocking (Section 9) ==");
  sections.push_back(BlockingComparisonTable(set));
  for (ProtocolKind kind : AnalyzableProtocolKinds()) {
    const BlockingAnalysis blocking = ComputeBlocking(set, kind);
    sections.push_back(
        StrFormat("== %s: Liu-Layland sufficient test ==", ToString(kind)));
    const auto ll = LiuLaylandTest(set, blocking.AllB());
    sections.push_back(ll.ok() ? ll.value().DebugString(set)
                               : ll.status().ToString());
    sections.push_back(
        StrFormat("== %s: hyperbolic bound ==", ToString(kind)));
    const auto hb = HyperbolicTest(set, blocking.AllB());
    sections.push_back(hb.ok() ? hb.value().DebugString(set)
                               : hb.status().ToString());
    sections.push_back(
        StrFormat("== %s: response-time analysis ==", ToString(kind)));
    const auto rta = ResponseTimeAnalysis(set, blocking.AllB());
    sections.push_back(rta.ok() ? rta.value().DebugString(set)
                                : rta.status().ToString());
  }
  return Join(sections, "\n");
}

bool AnalysisReport::AnyVerdict(SchedVerdict verdict) const {
  for (const ProtocolAnalysis& pa : per_protocol) {
    if (pa.sched.verdict == verdict) return true;
  }
  return false;
}

AnalysisReport AnalyzeSet(const TransactionSet& set,
                          const std::vector<ProtocolKind>& kinds) {
  AnalysisReport report;
  report.per_protocol.reserve(kinds.size());
  for (ProtocolKind kind : kinds) {
    ProtocolAnalysis pa;
    pa.protocol = kind;
    pa.blocking = ComputeBlocking(set, kind);
    pa.sched = AnalyzeResponseTimes(set, pa.blocking);
    report.per_protocol.push_back(std::move(pa));
  }
  return report;
}

std::string RenderAnalysisText(const std::string& file,
                               const TransactionSet& set,
                               const AnalysisReport& report) {
  std::vector<std::string> lines;
  for (const ProtocolAnalysis& pa : report.per_protocol) {
    lines.push_back(StrFormat("%s: %s: %s", file.c_str(),
                              ToString(pa.protocol),
                              ToString(pa.sched.verdict)));
    lines.push_back(Indent(pa.blocking.DebugString(set), 2));
    lines.push_back(Indent(pa.sched.DebugString(set), 2));
  }
  return Join(lines, "\n") + "\n";
}

std::string RenderAnalysisJson(const std::string& file,
                               const TransactionSet& set,
                               const AnalysisReport& report) {
  std::vector<std::string> protocol_entries;
  for (const ProtocolAnalysis& pa : report.per_protocol) {
    std::vector<std::string> spec_entries;
    for (SpecId i = 0; i < set.size(); ++i) {
      const SpecBlocking& sb = pa.blocking.ForSpec(i);
      const SpecSchedResult& sr =
          pa.sched.per_spec[static_cast<std::size_t>(i)];
      std::vector<std::string> bts_names;
      for (SpecId l : sb.bts) {
        bts_names.push_back(
            StrFormat("\"%s\"", JsonEscape(set.spec(l).name).c_str()));
      }
      std::vector<std::string> restarts;
      for (const RestartSource& source : sb.restart_sources) {
        restarts.push_back(StrFormat(
            "{\"spec\": \"%s\", \"per_release\": %d}",
            JsonEscape(set.spec(source.spec).name).c_str(),
            source.per_release));
      }
      const std::string b_text =
          sb.bounded
              ? StrFormat("%lld", static_cast<long long>(sb.worst_blocking))
              : std::string("null");
      const std::string response_text =
          sr.response == kNoTick
              ? std::string("null")
              : StrFormat("%lld", static_cast<long long>(sr.response));
      spec_entries.push_back(StrFormat(
          "        {\"name\": \"%s\", \"B\": %s, \"response\": %s, "
          "\"verdict\": \"%s\", \"bts\": [%s], \"restarts\": [%s]}",
          JsonEscape(set.spec(i).name).c_str(), b_text.c_str(),
          response_text.c_str(), ToString(sr.verdict),
          Join(bts_names, ", ").c_str(), Join(restarts, ", ").c_str()));
    }
    protocol_entries.push_back(StrFormat(
        "    {\"protocol\": \"%s\", \"verdict\": \"%s\", "
        "\"bounded\": %s,\n      \"specs\": [\n%s\n      ]}",
        ToString(pa.protocol), ToString(pa.sched.verdict),
        pa.blocking.bounded ? "true" : "false",
        Join(spec_entries, ",\n").c_str()));
  }
  return StrFormat("{\n  \"file\": \"%s\",\n  \"protocols\": [\n%s\n  ]\n}",
                   JsonEscape(file).c_str(),
                   Join(protocol_entries, ",\n").c_str());
}

}  // namespace pcpda
