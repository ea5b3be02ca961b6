#include "lint/diagnostic.h"

#include "common/strings.h"

namespace pcpda {

const char* ToString(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "unknown";
}

int LintReport::CountAtLeast(LintSeverity severity) const {
  int count = 0;
  for (const LintDiagnostic& d : diagnostics) {
    if (d.severity >= severity) ++count;
  }
  return count;
}

std::string LintReport::Render(const std::string& file) const {
  std::vector<std::string> lines;
  const std::string prefix = file.empty() ? "<scenario>" : file;
  for (const LintDiagnostic& d : diagnostics) {
    std::string where = prefix;
    if (d.span.valid()) {
      where += StrFormat(":%d:%d", d.span.line, d.span.column);
    }
    lines.push_back(StrFormat("%s: %s: %s [%s]", where.c_str(),
                              ToString(d.severity), d.message.c_str(),
                              d.rule.c_str()));
  }
  const int errors = CountAtLeast(LintSeverity::kError);
  const int warnings =
      CountAtLeast(LintSeverity::kWarning) - errors;
  const int notes = static_cast<int>(diagnostics.size()) - errors - warnings;
  lines.push_back(StrFormat("%s: %d error(s), %d warning(s), %d note(s)",
                            prefix.c_str(), errors, warnings, notes));
  return Join(lines, "\n") + "\n";
}

void LintReport::RenderJson(const std::string& file, JsonWriter& json) const {
  json.BeginObject(JsonLayout::kBlock)
      .Key("file").String(file)
      .Key("scenario").String(scenario)
      .Key("errors").Int(errors())
      .Key("diagnostics").BeginArray(JsonLayout::kBlock);
  for (const LintDiagnostic& d : diagnostics) {
    json.BeginObject(JsonLayout::kInline)
        .Key("rule").String(d.rule)
        .Key("severity").String(ToString(d.severity))
        .Key("line").Int(d.span.line).Key("column").Int(d.span.column)
        .Key("entity").String(d.entity)
        .Key("message").String(d.message)
        .End();
  }
  json.End().End();
}

}  // namespace pcpda
