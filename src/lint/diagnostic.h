#ifndef PCPDA_LINT_DIAGNOSTIC_H_
#define PCPDA_LINT_DIAGNOSTIC_H_

#include <string>
#include <vector>

#include "common/json.h"
#include "workload/scenario.h"

namespace pcpda {

/// How bad a lint finding is. The severity contract is aligned with the
/// dynamic pipeline so the fuzzer can cross-check the two (DESIGN.md
/// §11): kError marks scenarios whose declared facts are provably wrong
/// or unusable (they would also fail or mislead at simulation time);
/// kWarning marks legal scenarios with a property the author almost
/// certainly wants to know about (potential deadlock, unschedulable
/// set, dead entities); kNote is informational.
enum class LintSeverity : std::uint8_t {
  kNote = 0,
  kWarning = 1,
  kError = 2,
};

const char* ToString(LintSeverity severity);

/// One structured finding of the static analyzer.
struct LintDiagnostic {
  /// Stable kebab-case rule id, e.g. "cs-overlap" (table in lint.h).
  std::string rule;
  LintSeverity severity = LintSeverity::kWarning;
  /// Anchor into the .scn source; invalid for in-memory scenarios.
  SourceSpan span;
  std::string message;
  /// The txn or item name the finding is about; empty if scenario-wide.
  std::string entity;
};

/// Everything the analyzer concluded about one scenario, ordered by
/// source position (synthetic spans last) for stable rendering.
struct LintReport {
  /// Scenario name; empty when the text failed to parse.
  std::string scenario;
  std::vector<LintDiagnostic> diagnostics;

  int CountAtLeast(LintSeverity severity) const;
  int errors() const { return CountAtLeast(LintSeverity::kError); }
  bool clean() const { return errors() == 0; }

  /// GCC-style text: "<file>:<line>:<col>: <severity>: <message>
  /// [<rule>]" one line per diagnostic, then a one-line summary.
  std::string Render(const std::string& file) const;
  /// Writes the machine-readable form to `json`:
  /// {"file", "scenario", "errors", "diagnostics": [...]}.
  void RenderJson(const std::string& file, JsonWriter& json) const;
};

}  // namespace pcpda

#endif  // PCPDA_LINT_DIAGNOSTIC_H_
