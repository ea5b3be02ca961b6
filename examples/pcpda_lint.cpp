// Static scenario analyzer CLI: lint .scn files without simulating them.
//
//   ./build/examples/pcpda_lint scenarios/example4.scn
//   ./build/examples/pcpda_lint --dir=scenarios            # every *.scn
//   ./build/examples/pcpda_lint --format=json --deny=warning file.scn
//
// Flags:
//   --dir=DIR        lint every *.scn directly under DIR (sorted)
//   --format=text|json
//   --deny=error|warning|note|none
//                    exit 1 when any file has a diagnostic at or above
//                    this severity (default error)
//   --analysis=pcp-da|all|none
//                    protocols feeding the schedulability pre-checks
//   --no-notes       drop note-severity diagnostics
//   --quiet          print only files with diagnostics
//
// Exit codes (shared by every CLI in examples/): 0 all files pass the
// --deny gate, 1 at least one file is denied, 2 usage or IO error.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/json.h"
#include "lint/lint.h"

using namespace pcpda;

namespace {

struct CliOptions {
  std::vector<std::string> files;
  std::string format = "text";
  LintSeverity deny = LintSeverity::kError;
  bool deny_any = true;
  LintOptions lint;
  bool quiet = false;
};

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--dir=DIR] [--format=text|json] "
      "[--deny=error|warning|note|none]\n"
      "          [--analysis=pcp-da|all|none] [--no-notes] [--quiet] "
      "[file.scn ...]\n",
      argv0);
  return 2;
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
    } else if (arg.rfind("--deny=", 0) == 0) {
      const std::string level = arg.substr(7);
      cli.deny_any = true;
      if (level == "error") {
        cli.deny = LintSeverity::kError;
      } else if (level == "warning") {
        cli.deny = LintSeverity::kWarning;
      } else if (level == "note") {
        cli.deny = LintSeverity::kNote;
      } else if (level == "none") {
        cli.deny_any = false;
      } else {
        return false;
      }
    } else if (arg.rfind("--analysis=", 0) == 0) {
      const std::string which = arg.substr(11);
      if (which == "pcp-da") {
        cli.lint.analysis_protocols = {ProtocolKind::kPcpDa};
      } else if (which == "all") {
        cli.lint.analysis_protocols = AnalyzableProtocolKinds();
      } else if (which == "none") {
        cli.lint.analysis_protocols.clear();
        cli.lint.schedulability = false;
      } else {
        return false;
      }
    } else if (arg == "--no-notes") {
      cli.lint.include_notes = false;
    } else if (arg == "--quiet") {
      cli.quiet = true;
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
    const auto report = LintScenarioFile(file, cli.lint);
    if (!report.ok()) {
      std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
      io_error = true;
      continue;
    }
    if (cli.deny_any && report->CountAtLeast(cli.deny) > 0) denied = true;
    if (cli.format == "json") {
      report->RenderJson(file, json);
    } else if (!cli.quiet || !report->diagnostics.empty()) {
      std::printf("%s", report->Render(file).c_str());
    }
  }
  json.End();
  if (cli.format == "json") std::printf("%s\n", json.Finish().c_str());
  if (io_error) return 2;
  return denied ? 1 : 0;
}
