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

void RenderAnalysisJson(const std::string& file, const TransactionSet& set,
                        const AnalysisReport& report, JsonWriter& json) {
  json.BeginObject(JsonLayout::kBlock).Key("file").String(file);
  json.Key("protocols").BeginArray(JsonLayout::kBlock);
  for (const ProtocolAnalysis& pa : report.per_protocol) {
    json.BeginObject(JsonLayout::kBlock)
        .Key("protocol").String(ToString(pa.protocol))
        .Key("verdict").String(ToString(pa.sched.verdict))
        .Key("bounded").Bool(pa.blocking.bounded)
        .Key("specs").BeginArray(JsonLayout::kBlock);
    for (SpecId i = 0; i < set.size(); ++i) {
      const SpecBlocking& sb = pa.blocking.ForSpec(i);
      const SpecSchedResult& sr =
          pa.sched.per_spec[static_cast<std::size_t>(i)];
      json.BeginObject(JsonLayout::kInline)
          .Key("name").String(set.spec(i).name);
      json.Key("B");
      sb.bounded ? json.Int(sb.worst_blocking) : json.Null();
      json.Key("response");
      sr.response == kNoTick ? json.Null() : json.Int(sr.response);
      json.Key("verdict").String(ToString(sr.verdict));
      json.Key("bts").BeginArray(JsonLayout::kInline);
      for (SpecId l : sb.bts) json.String(set.spec(l).name);
      json.End().Key("restarts").BeginArray(JsonLayout::kInline);
      for (const RestartSource& source : sb.restart_sources) {
        json.BeginObject(JsonLayout::kInline)
            .Key("spec").String(set.spec(source.spec).name)
            .Key("per_release").Int(source.per_release)
            .End();
      }
      json.End().End();
    }
    json.End().End();
  }
  json.End().End();
}

}  // namespace pcpda
