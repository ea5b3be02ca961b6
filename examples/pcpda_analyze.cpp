// Static blocking/schedulability analyzer CLI: compute per-protocol
// worst-case blocking bounds and response-time verdicts for .scn files
// without simulating them.
//
//   ./build/examples/pcpda_analyze scenarios/example3.scn
//   ./build/examples/pcpda_analyze --dir=scenarios --format=json
//   ./build/examples/pcpda_analyze --protocols=PCP-DA,RW-PCP file.scn
//
// Flags:
//   --dir=DIR        analyze every *.scn directly under DIR (sorted)
//   --format=text|json
//   --protocols=LIST comma-separated protocol names (see --help output),
//                    "analyzable" (every kind with a finite bound, the
//                    default), or "all" (includes 2PL-PI, reported as
//                    unbounded/unknown)
//   --deny=unschedulable|unknown|none
//                    exit 1 when any file carries a per-protocol verdict
//                    at or above this level (unknown also denies
//                    unschedulable; default unschedulable)
//
// Exit codes (shared by every CLI in examples/): 0 all files pass the
// --deny gate, 1 at least one file is denied, 2 usage or IO error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "common/json.h"
#include "workload/scenario.h"

using namespace pcpda;

namespace {

struct CliOptions {
  std::vector<std::string> files;
  std::string format = "text";
  std::vector<ProtocolKind> protocols = AnalyzableProtocolKinds();
  bool deny_unschedulable = true;
  bool deny_unknown = false;
};

int Usage(const char* argv0) {
  std::string names;
  for (ProtocolKind kind : AllProtocolKinds()) {
    if (!names.empty()) names += ",";
    names += ToString(kind);
  }
  std::fprintf(
      stderr,
      "usage: %s [--dir=DIR] [--format=text|json]\n"
      "          [--protocols=analyzable|all|NAME[,NAME...]]\n"
      "          [--deny=unschedulable|unknown|none] [file.scn ...]\n"
      "protocol names: %s\n",
      argv0, names.c_str());
  return 2;
}

bool ParseProtocols(const std::string& list, CliOptions& cli) {
  if (list == "analyzable") {
    cli.protocols = AnalyzableProtocolKinds();
    return true;
  }
  if (list == "all") {
    cli.protocols = AllProtocolKinds();
    return true;
  }
  cli.protocols.clear();
  std::size_t at = 0;
  while (at <= list.size()) {
    const std::size_t comma = list.find(',', at);
    const std::string name =
        list.substr(at, comma == std::string::npos ? comma : comma - at);
    const auto kind = ProtocolKindByName(name);
    if (!kind.has_value()) {
      std::fprintf(stderr, "unknown protocol %s\n", name.c_str());
      return false;
    }
    cli.protocols.push_back(*kind);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return !cli.protocols.empty();
}

bool ParseArgs(int argc, char** argv, CliOptions& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--dir=", 0) == 0) {
      const std::string dir = arg.substr(6);
      std::error_code ec;
      std::vector<std::string> found;
      for (const auto& entry :
           std::filesystem::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() &&
            entry.path().extension() == ".scn") {
          found.push_back(entry.path().string());
        }
      }
      if (ec) {
        std::fprintf(stderr, "cannot list %s: %s\n", dir.c_str(),
                     ec.message().c_str());
        return false;
      }
      std::sort(found.begin(), found.end());
      cli.files.insert(cli.files.end(), found.begin(), found.end());
    } else if (arg.rfind("--format=", 0) == 0) {
      cli.format = arg.substr(9);
      if (cli.format != "text" && cli.format != "json") return false;
    } else if (arg.rfind("--protocols=", 0) == 0) {
      if (!ParseProtocols(arg.substr(12), cli)) return false;
    } else if (arg.rfind("--deny=", 0) == 0) {
      const std::string level = arg.substr(7);
      if (level == "unschedulable") {
        cli.deny_unschedulable = true;
        cli.deny_unknown = false;
      } else if (level == "unknown") {
        cli.deny_unschedulable = true;
        cli.deny_unknown = true;
      } else if (level == "none") {
        cli.deny_unschedulable = false;
        cli.deny_unknown = false;
      } else {
        return false;
      }
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      return false;
    } else {
      cli.files.push_back(arg);
    }
  }
  return !cli.files.empty();
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!ParseArgs(argc, argv, cli)) return Usage(argv[0]);

  bool denied = false;
  bool io_error = false;
  JsonWriter json;
  json.BeginArray(JsonLayout::kBlock);
  for (const std::string& file : cli.files) {
    const auto scenario = LoadScenarioFile(file);
    if (!scenario.ok()) {
      std::fprintf(stderr, "%s\n", scenario.status().ToString().c_str());
      io_error = true;
      continue;
    }
    const AnalysisReport report =
        AnalyzeSet(scenario->set, cli.protocols);
    if ((cli.deny_unschedulable &&
         report.AnyVerdict(SchedVerdict::kUnschedulable)) ||
        (cli.deny_unknown && report.AnyVerdict(SchedVerdict::kUnknown))) {
      denied = true;
    }
    if (cli.format == "json") {
      RenderAnalysisJson(file, scenario->set, report, json);
    } else {
      std::printf("%s",
                  RenderAnalysisText(file, scenario->set, report).c_str());
    }
  }
  json.End();
  if (cli.format == "json") std::printf("%s\n", json.Finish().c_str());
  if (io_error) return 2;
  return denied ? 1 : 0;
}
