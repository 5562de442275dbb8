/// \file prtr_report.cpp
/// prtr-report — bench-regression dashboard. Ingests one or more bench
/// --json documents, pairs each with its committed baseline
/// (<baselines>/BENCH_<bench>.json), and classifies every scalar and table
/// delta under the obs::ComparePolicy noise model: simulated-time scalars
/// must match exactly, wall-clock scalars are informational unless gated.
/// Exit code 0 when every bench passes, 1 when any comparison regressed
/// (or a baseline is missing), 2 on usage or I/O problems.
///
///   prtr-report --baselines DIR [options] <current.json>...
///     --baselines DIR   directory holding BENCH_<bench>.json baselines
///     --markdown PATH   write a GitHub-flavoured markdown dashboard
///     --verdict PATH    write a machine-readable JSON verdict
///     --wall-band F     relative band for wall-clock scalars (default 0.25)
///     --gate-wall       fail on wall-clock drift beyond the band
///
/// The terminal dashboard always goes to stdout, one block per bench.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_io.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace prtr;

struct CliOptions {
  std::string baselinesDir;
  std::string markdownPath;
  std::string verdictPath;
  obs::ComparePolicy policy;
  std::vector<std::string> inputs;
};

int usage() {
  std::cerr
      << "usage: prtr-report --baselines DIR [options] <current.json>...\n"
         "  --baselines DIR   directory with BENCH_<bench>.json baselines\n"
         "  --markdown PATH   write a markdown dashboard for CI artifacts\n"
         "  --verdict PATH    write a machine-readable JSON verdict\n"
         "  --wall-band F     wall-clock relative band (default 0.25)\n"
         "  --gate-wall       fail on wall-clock drift beyond the band\n";
  return 2;
}

bool parseArgs(int argc, char** argv, CliOptions& cli) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baselines" || arg == "--markdown" || arg == "--verdict" ||
        arg == "--wall-band") {
      if (i + 1 >= argc) {
        std::cerr << "prtr-report: " << arg << " needs a value\n";
        return false;
      }
      const std::string value = argv[++i];
      if (arg == "--baselines") {
        cli.baselinesDir = value;
      } else if (arg == "--markdown") {
        cli.markdownPath = value;
      } else if (arg == "--verdict") {
        cli.verdictPath = value;
      } else {
        try {
          cli.policy.wallBand = std::stod(value);
        } catch (const std::exception&) {
          std::cerr << "prtr-report: --wall-band needs a number, got '"
                    << value << "'\n";
          return false;
        }
      }
    } else if (arg == "--gate-wall") {
      cli.policy.gateWallClock = true;
    } else if (!arg.empty() && arg.front() == '-') {
      std::cerr << "prtr-report: unknown option '" << arg << "'\n";
      return false;
    } else {
      cli.inputs.push_back(arg);
    }
  }
  if (cli.baselinesDir.empty()) {
    std::cerr << "prtr-report: --baselines is required\n";
    return false;
  }
  if (cli.inputs.empty()) {
    std::cerr << "prtr-report: no current bench JSON files given\n";
    return false;
  }
  return true;
}

void writeToFile(const std::string& path, const std::string& content,
                 const char* what) {
  std::ofstream os{path};
  util::require(os.good(),
                std::string{"prtr-report: cannot open "} + what + " file '" +
                    path + "' for writing");
  os << content;
  util::require(os.good(), std::string{"prtr-report: failed writing "} + what +
                               " file '" + path + "'");
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  if (!parseArgs(argc, argv, cli)) return usage();

  std::vector<obs::CompareResult> results;
  bool anyFail = false;
  try {
    for (const std::string& input : cli.inputs) {
      const obs::BenchDoc current = obs::BenchDoc::parseFile(input);
      const std::string baselinePath =
          cli.baselinesDir + "/BENCH_" + current.bench + ".json";
      const obs::BenchDoc baseline = obs::BenchDoc::parseFile(baselinePath);
      results.push_back(obs::compare(baseline, current, cli.policy));
      const obs::CompareResult& result = results.back();
      std::cout << result.renderText() << '\n';
      anyFail = anyFail || !result.pass;
    }

    if (!cli.markdownPath.empty()) {
      std::string markdown = "# prtr-report bench regression dashboard\n\n";
      for (const obs::CompareResult& result : results) {
        markdown += result.renderMarkdown();
        markdown += '\n';
      }
      writeToFile(cli.markdownPath, markdown, "markdown");
    }
    if (!cli.verdictPath.empty()) {
      std::ostringstream os;
      util::json::Writer w{os};
      w.beginObject();
      w.key("pass").value(!anyFail);
      w.key("benches").beginArray();
      for (const obs::CompareResult& result : results) result.writeJson(w);
      w.endArray();
      w.endObject();
      writeToFile(cli.verdictPath, os.str(), "verdict");
    }
  } catch (const util::Error& e) {
    std::cerr << "prtr-report: " << e.what() << '\n';
    return 2;
  }

  if (anyFail) {
    std::cerr << "prtr-report: FAIL — at least one bench regressed against "
                 "its baseline\n";
    return 1;
  }
  std::cout << "prtr-report: all " << results.size()
            << " bench(es) within tolerance\n";
  return 0;
}
