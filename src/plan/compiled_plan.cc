#include "plan/compiled_plan.h"

#include <utility>

#include "lint/lint.h"

namespace pcpda {

StatusOr<CompiledPlan> CompiledPlan::Compile(Scenario scenario,
                                             const CompileOptions& options) {
  if (options.lint) {
    LintReport report = LintScenario(scenario, LintFilterOptions());
    if (!report.clean()) {
      return Status::InvalidArgument("scenario failed lint:\n" +
                                     report.Render(scenario.name));
    }
  }

  return CompiledPlan(std::make_shared<Impl>(std::move(scenario)));
}

StatusOr<CompiledPlan> CompiledPlan::Compile(std::string name,
                                             TransactionSet set, Tick horizon,
                                             const CompileOptions& options) {
  Scenario scenario{std::move(name), std::move(set), horizon, {}, {}, {}, {}};
  return Compile(std::move(scenario), options);
}

}  // namespace pcpda
