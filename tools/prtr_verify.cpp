/// \file prtr_verify.cpp
/// prtr-verify — dynamic-analysis verdicts for captured runs: timeline
/// invariant checking over Chrome traces (TL0xx), trace diffing (DT002),
/// bounded schedule exploration proving the pool's determinism contract
/// (DT001/DT003), and a race-detector demo over the instrumented exec
/// layer (RC0xx). Exit code 0 when clean (warnings allowed unless
/// --werror), 1 when any error-severity diagnostic fired, 2 on usage or
/// I/O problems — the same contract as prtr-lint.
///
///   prtr-verify [--json] [--werror] trace <file>...
///   prtr-verify [--json] [--werror] diff <left> <right>
///   prtr-verify [--json] [--werror] explore [--widths 1,2,3,4]
///               [--seeds N] [--points N] [--ncalls N] [--min-schedules N]
///   prtr-verify [--json] [--werror] race-demo
///   prtr-verify codes
///
/// The same checkers back ScenarioOptions::verify and the verify test
/// suites, so whatever this tool accepts the library accepts.

#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"
#include "verify/race.hpp"
#include "verify/schedule.hpp"
#include "verify/trace_load.hpp"

namespace {

using namespace prtr;

struct CliOptions {
  bool json = false;
  bool werror = false;
};

int usage() {
  std::cerr
      << "usage: prtr-verify [--json] [--werror] <command> [args]\n"
         "  trace <file>...          check Chrome traces against the TL0xx\n"
         "                           timeline and RQ0xx request invariants\n"
         "  diff <left> <right>      compare two captures of one scenario\n"
         "                           (differences are DT002)\n"
         "  explore [--widths W,..] [--seeds N] [--points N] [--ncalls N]\n"
         "          [--min-schedules N]\n"
         "                           replay a scaled-down Fig-9 sweep under\n"
         "                           seeded pool interleavings and prove\n"
         "                           byte-identity (DT001/DT003)\n"
         "  race-demo                run an instrumented pooled sweep under\n"
         "                           the happens-before race detector\n"
         "  codes                    list the RC/TL/RQ/DT rule families\n"
         "exit codes: 0 clean (warnings allowed unless --werror),\n"
         "            1 error-severity findings, 2 usage or I/O problems\n";
  return 2;
}

/// Renders one verification result and folds it into the process exit code.
int report(const std::string& subject, const analyze::DiagnosticSink& sink,
           const CliOptions& cli) {
  if (cli.json) {
    std::cout << "{\"subject\":\"" << analyze::jsonEscape(subject)
              << "\",\"report\":" << sink.toJson() << "}\n";
  } else {
    std::cout << "== " << subject << " ==\n" << sink.toText();
  }
  if (sink.hasErrors()) return 1;
  if (cli.werror && !sink.empty()) return 1;
  return 0;
}

int checkTraceFiles(const std::vector<std::string>& files,
                    const CliOptions& cli) {
  int exitCode = 0;
  for (const std::string& file : files) {
    const auto processes = verify::loadChromeTraceFile(file);
    analyze::DiagnosticSink sink;
    verify::checkTrace(processes, sink);
    exitCode = std::max(exitCode, report(file, sink, cli));
  }
  return exitCode;
}

int diffTraceFiles(const std::string& left, const std::string& right,
                   const CliOptions& cli) {
  analyze::DiagnosticSink sink;
  verify::compareTraces(verify::loadChromeTraceFile(left),
                        verify::loadChromeTraceFile(right), sink);
  return report(left + " vs " + right, sink, cli);
}

std::vector<std::size_t> parseWidths(const std::string& list) {
  std::vector<std::size_t> widths;
  std::istringstream in{list};
  std::string item;
  while (std::getline(in, item, ',')) {
    const int value = std::stoi(item);
    util::require(value > 0, "pool widths must be positive");
    widths.push_back(static_cast<std::size_t>(value));
  }
  util::require(!widths.empty(), "--widths needs at least one width");
  return widths;
}

int explore(const std::vector<std::string>& args, const CliOptions& cli) {
  verify::ExploreOptions options;
  options.minDistinctSchedules = 8;  // a CLI run should prove something
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto value = [&]() -> std::string {
      util::require(i + 1 < args.size(), args[i] + " needs a value");
      return args[++i];
    };
    if (args[i] == "--widths") {
      options.widths = parseWidths(value());
    } else if (args[i] == "--seeds") {
      options.seedsPerWidth = static_cast<std::size_t>(std::stoi(value()));
    } else if (args[i] == "--points") {
      options.points = static_cast<std::size_t>(std::stoi(value()));
    } else if (args[i] == "--ncalls") {
      options.nCalls = static_cast<std::uint64_t>(std::stoll(value()));
    } else if (args[i] == "--min-schedules") {
      options.minDistinctSchedules =
          static_cast<std::size_t>(std::stoi(value()));
    } else {
      return usage();
    }
  }
  analyze::DiagnosticSink sink;
  const verify::ExploreResult result = verify::exploreSchedules(options, sink);
  std::cout << "explored " << result.runs.size() << " perturbed replays ("
            << result.distinctSchedules << " distinct schedules), reference "
            << "digest " << result.referenceDigest << ", "
            << result.mismatches << " mismatch(es)\n";
  return report("explore", sink, cli);
}

/// Runs a pooled sweep with the race detector armed through the global
/// seam: the pool's submit/steal/complete edges and the artifact cache's
/// mutex hand-offs must order every access (an RC finding here is a bug in
/// the exec layer, not in this demo).
int raceDemo(const CliOptions& cli) {
  // Never destroyed: a task's completion edge may land after parallelFor
  // returns, and a function-local static would be destroyed at exit before
  // the global pool (a namespace-scope static) joins its workers.
  static verify::RaceDetector& detector = *new verify::RaceDetector;
  exec::Pool::setGlobalThreads(4);  // a serial pool would prove nothing
  exec::setRaceChecker(&detector);
  std::vector<double> out(128, 0.0);
  exec::parallelFor(out.size(), [&out](std::size_t i) {
    const auto plan = exec::ArtifactCache::global().floorplan(
        exec::KeyBuilder{}.add("race-demo.plan").value(),
        [] { return fabric::makeDualPrrLayout(); });
    out[i] = static_cast<double>(plan->prrCount() + i);
  });
  exec::setRaceChecker(nullptr);
  analyze::DiagnosticSink sink;
  detector.report(sink);
  const verify::RaceDetector::Stats stats = detector.stats();
  std::cout << "observed " << stats.threads << " threads, "
            << stats.releases << " releases, " << stats.acquires
            << " acquires, " << stats.reads << " reads, " << stats.writes
            << " writes\n";
  return report("race-demo", sink, cli);
}

int listCodes() {
  for (const analyze::RuleInfo& rule : analyze::ruleCatalog()) {
    const bool verifyFamily = rule.category == analyze::Category::kRace ||
                              rule.category == analyze::Category::kTimeline ||
                              rule.category == analyze::Category::kRequest ||
                              rule.category == analyze::Category::kDeterminism;
    if (!verifyFamily) continue;
    std::cout << rule.code << "  " << toString(rule.severity) << "  "
              << rule.summary << '\n';
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions cli;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  while (!args.empty() && (args[0] == "--json" || args[0] == "--werror")) {
    (args[0] == "--json" ? cli.json : cli.werror) = true;
    args.erase(args.begin());
  }
  if (args.empty()) return usage();
  const std::string command = args[0];
  args.erase(args.begin());

  try {
    if (command == "--help" || command == "help") {
      usage();
      return 0;
    }
    if (command == "codes") return listCodes();
    if (command == "trace") {
      if (args.empty()) return usage();
      return checkTraceFiles(args, cli);
    }
    if (command == "diff") {
      if (args.size() != 2) return usage();
      return diffTraceFiles(args[0], args[1], cli);
    }
    if (command == "explore") return explore(args, cli);
    if (command == "race-demo") {
      if (!args.empty()) return usage();
      return raceDemo(cli);
    }
  } catch (const util::Error& e) {
    std::cerr << "prtr-verify: " << e.what() << '\n';
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "prtr-verify: " << e.what() << '\n';
    return 2;
  }
  return usage();
}
