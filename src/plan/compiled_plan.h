#ifndef PCPDA_PLAN_COMPILED_PLAN_H_
#define PCPDA_PLAN_COMPILED_PLAN_H_

#include <memory>
#include <string>

#include "common/check.h"
#include "common/status.h"
#include "db/ceilings.h"
#include "sim/calendar.h"
#include "workload/scenario.h"

namespace pcpda {

struct CompileOptions {
  /// Run the static analyzer as a compile gate: scenarios with lint
  /// errors are refused (InvalidArgument carrying the rendered report).
  /// Callers that have already linted — or that compile generated
  /// workloads the generator guarantees well-formed — turn this off;
  /// compiling without the gate cannot fail.
  bool lint = true;
};

/// The compile-once/execute-many artifact every simulator run starts
/// from: everything that is static per scenario, lowered exactly once.
///
///   * the parsed scenario itself (owned; entity ids — specs, items —
///     are already dense [0, N) indexes in this codebase, so no extra
///     remap table is needed);
///   * the static priority ceilings (Wceil/Aceil) the protocols consult
///     on every lock decision;
///   * the arrival calendar with a prebuilt cursor heap, copied (O(specs))
///     into each run instead of being reconstructed.
///
/// A CompiledPlan is an immutable value: the state lives behind a shared
/// pointer, so copies are cheap and a grid of concurrent runs can share
/// one plan without synchronization. Pointers and references obtained
/// from accessors stay valid for the lifetime of any copy.
class CompiledPlan {
 public:
  /// An empty plan (ok() == false); Compile is the real constructor.
  CompiledPlan() = default;

  /// Lowers a parsed scenario. The scenario is moved into the plan.
  static StatusOr<CompiledPlan> Compile(Scenario scenario,
                                        const CompileOptions& options = {});
  /// Convenience for generated workloads: wraps a bare TransactionSet
  /// into a scenario named `name` and compiles it.
  static StatusOr<CompiledPlan> Compile(std::string name,
                                        TransactionSet set, Tick horizon,
                                        const CompileOptions& options = {});

  bool ok() const { return impl_ != nullptr; }

  const Scenario& scenario() const { return impl().scenario; }
  const TransactionSet& set() const { return impl().scenario.set; }
  const StaticCeilings& ceilings() const { return impl().ceilings; }
  /// A fresh cursor positioned at tick 0 — a copy of the prebuilt heap,
  /// byte-identical in pop order to ArrivalCalendar::MakeCursor().
  ArrivalCalendar::Cursor MakeCursor() const {
    return impl().initial_cursor;
  }

 private:
  struct Impl {
    explicit Impl(Scenario s)
        : scenario(std::move(s)),
          ceilings(scenario.set),
          calendar(&scenario.set),
          initial_cursor(calendar.MakeCursor()) {}

    Scenario scenario;
    StaticCeilings ceilings;
    ArrivalCalendar calendar;
    ArrivalCalendar::Cursor initial_cursor;
  };

  explicit CompiledPlan(std::shared_ptr<const Impl> impl)
      : impl_(std::move(impl)) {}

  const Impl& impl() const {
    PCPDA_CHECK_MSG(impl_ != nullptr, "empty CompiledPlan");
    return *impl_;
  }

  std::shared_ptr<const Impl> impl_;
};

}  // namespace pcpda

#endif  // PCPDA_PLAN_COMPILED_PLAN_H_
