// Figure exporter: regenerate the paper's figures as SVG files plus the
// per-tick schedules and metrics as CSV — ready to drop into a paper or a
// web page.
//
//   ./build/examples/export_figures [output_dir]    (default: ./figures)

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "plan/compiled_plan.h"
#include "protocols/factory.h"
#include "sched/simulator.h"
#include "trace/csv.h"
#include "trace/svg.h"
#include "workload/paper_examples.h"

using namespace pcpda;

namespace {

bool WriteFile(const std::filesystem::path& path,
               const std::string& content) {
  std::ofstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  file << content;
  return true;
}

bool Export(const std::filesystem::path& dir, const std::string& stem,
            const PaperExample& example, ProtocolKind kind) {
  auto protocol = MakeProtocol(kind);
  SimulatorOptions options;
  options.horizon = example.horizon;
  options.deadlock_policy = DeadlockPolicy::kAbortLowestPriority;
  Simulator simulator(
      CompiledPlan::Compile(example.name, example.set, example.horizon,
                            {.lint = false})
          .value(),
      protocol.get(), options);
  const SimResult result = simulator.Run();

  SvgOptions svg;
  svg.title = example.name + " — " + ToString(kind);
  bool ok = WriteFile(dir / (stem + ".svg"),
                      RenderSvg(example.set, result.trace, svg));
  ok = WriteFile(dir / (stem + "_schedule.csv"),
                 ScheduleCsv(example.set, result.trace)) &&
       ok;
  ok = WriteFile(dir / (stem + "_events.csv"),
                 TraceEventsCsv(result.trace)) &&
       ok;
  ok = WriteFile(dir / (stem + "_metrics.csv"),
                 MetricsCsv(example.set, result.metrics)) &&
       ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::filesystem::path dir = argc > 1 ? argv[1] : "figures";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  struct Job {
    const char* stem;
    PaperExample example;
    ProtocolKind kind;
  };
  const Job jobs[] = {
      {"fig1_example1_rwpcp", Example1(), ProtocolKind::kRwPcp},
      {"fig2_example3_pcpda", Example3(), ProtocolKind::kPcpDa},
      {"fig3_example3_rwpcp", Example3(), ProtocolKind::kRwPcp},
      {"fig4_example4_pcpda", Example4(), ProtocolKind::kPcpDa},
      {"fig5_example4_rwpcp", Example4(), ProtocolKind::kRwPcp},
      {"example5_pcpda", Example5(), ProtocolKind::kPcpDa},
  };
  bool ok = true;
  for (const Job& job : jobs) {
    ok = Export(dir, job.stem, job.example, job.kind) && ok;
    std::printf("wrote %s/%s.svg (+ 3 CSVs)\n", dir.c_str(), job.stem);
  }
  return ok ? 0 : 1;
}
