// Side-by-side protocol comparison on the paper's worked examples: render
// the Gantt chart of every example under every protocol, the way Section 6
// contrasts Figures 2/3 and 4/5.
//
//   ./build/examples/protocol_comparison [example]   (1, 3, 4 or 5)

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/gantt.h"
#include "workload/paper_examples.h"

using namespace pcpda;

namespace {

void ShowExample(const PaperExample& example) {
  std::printf("================ %s ================\n",
              example.name.c_str());
  std::printf("%s\n", example.set.DebugString().c_str());
  std::printf("paper expectation: %s\n", example.notes.c_str());
  const CompiledPlan plan =
      CompiledPlan::Compile(example.name, example.set, example.horizon,
                            {.lint = false})
          .value();
  for (ProtocolKind kind : AllProtocolKinds()) {
    auto protocol = MakeProtocol(kind);
    SimulatorOptions options;
    options.horizon = example.horizon;
    options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
    Simulator simulator(plan, protocol.get(), options);
    const SimResult result = simulator.Run();
    GanttOptions gantt;
    gantt.show_legend = false;
    std::printf("\n--- %s ---\n%s\n", ToString(kind),
                RenderGantt(example.set, result.trace, gantt).c_str());
    std::printf("misses=%lld restarts=%lld deadlocks=%lld\n",
                static_cast<long long>(result.metrics.TotalMisses()),
                static_cast<long long>(result.metrics.TotalRestarts()),
                static_cast<long long>(result.metrics.deadlocks));
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<PaperExample> examples;
  if (argc > 1) {
    switch (std::atoi(argv[1])) {
      case 1:
        examples.push_back(Example1());
        break;
      case 3:
        examples.push_back(Example3());
        break;
      case 4:
        examples.push_back(Example4());
        break;
      case 5:
        examples.push_back(Example5());
        break;
      default:
        std::fprintf(stderr, "unknown example %s (use 1, 3, 4 or 5)\n",
                     argv[1]);
        return 1;
    }
  } else {
    examples = {Example1(), Example3(), Example4(), Example5()};
  }
  for (const PaperExample& example : examples) ShowExample(example);
  std::printf(
      "legend: r/w/# run (read/write/compute), B blocked, . preempted, "
      "^ arrival, C commit, ! deadline miss\n");
  return 0;
}
