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

std::string LintReport::RenderJson(const std::string& file) const {
  std::vector<std::string> entries;
  for (const LintDiagnostic& d : diagnostics) {
    entries.push_back(StrFormat(
        "    {\"rule\": \"%s\", \"severity\": \"%s\", \"line\": %d, "
        "\"column\": %d, \"entity\": \"%s\", \"message\": \"%s\"}",
        JsonEscape(d.rule).c_str(), ToString(d.severity), d.span.line,
        d.span.column, JsonEscape(d.entity).c_str(),
        JsonEscape(d.message).c_str()));
  }
  return StrFormat(
      "{\n  \"file\": \"%s\",\n  \"scenario\": \"%s\",\n"
      "  \"errors\": %d,\n  \"diagnostics\": [\n%s\n  ]\n}",
      JsonEscape(file).c_str(), JsonEscape(scenario).c_str(), errors(),
      Join(entries, ",\n").c_str());
}

}  // namespace pcpda
