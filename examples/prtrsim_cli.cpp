// prtrsim: command-line driver over the whole library — build a workload,
// pick a layout/basis/policy, run FRTR vs PRTR on the simulated XD1, and
// print the report with the model cross-check. The "adopt me" entry point
// for users who want numbers for their own parameters without writing C++.
//
// Usage:
//   prtrsim_cli [--layout single|dual|quad] [--basis estimated|measured]
//               [--calls N] [--bytes B] [--workload roundrobin|uniform|
//               markov|phased] [--locality P] [--registry paper|extended]
//               [--cache lru|lfu|fifo|random|belady] [--prefetch none|
//               queue|markov|association] [--force-miss 0|1]
//               [--control-us U] [--decision-us U] [--seed S] [--timeline]
//               [--trace FILE.json] [--metrics FILE.json]
//               [--profile FILE.json] [--threads N]
//               [--fault-rate P] [--fault-seed S] [--max-retries N]
//
// --fault-rate injects word flips at P per configuration word (plus ICAP
// aborts at P*100, capped at 2%) from the deterministic --fault-seed, and
// enables the recovery runtime with --max-retries attempts per ladder rung.
//
// Exit status: 0 on success, 2 on a usage error (a malformed or unknown
// flag, as at prtr-bench), 1 when the scenario fails its lint or its run.
#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

#include "analyze/checks_scenario.hpp"
#include "bench/options.hpp"
#include "exec/pool.hpp"
#include "obs/host.hpp"
#include "obs/trace_export.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"

namespace {

using namespace prtr;

/// Domain flags on top of the shared bench::Options vocabulary, shown by
/// `--help` below the common block.
constexpr const char* kDomainUsage =
    "  --layout single|dual|quad      XD1 floorplan (default dual)\n"
    "  --basis estimated|measured     config-time basis (default measured)\n"
    "  --calls N                      workload call count (default 100)\n"
    "  --bytes B                      data bytes per call (default 10000000)\n"
    "  --workload roundrobin|uniform|markov|phased\n"
    "  --locality P                   markov locality (default 0.7)\n"
    "  --registry paper|extended      function registry (default paper)\n"
    "  --cache lru|lfu|fifo|random|belady\n"
    "  --prefetch none|queue|markov|association\n"
    "  --force-miss 0|1               defeat the configuration cache\n"
    "  --control-us U                 control overhead per call (default 10)\n"
    "  --decision-us U                scheduler decision latency (default 0)\n"
    "  --timeline                     print the PRTR Gantt timeline\n"
    "  --metrics FILE.json            write the metrics snapshot\n"
    "  --fault-rate P                 chaos mode: word-flip rate per word\n"
    "  --fault-seed S                 chaos mode fault RNG seed\n"
    "  --max-retries N                recovery retries per ladder rung\n";

/// Parses the prtrsim domain flags from what bench::Options left behind.
std::map<std::string, std::string> parseArgs(
    const std::vector<std::string>& rest) {
  std::map<std::string, std::string> args;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& flag = rest[i];
    if (flag.rfind("--", 0) != 0) {
      throw util::DomainError{"options start with --, got " + flag};
    }
    std::string key = flag.substr(2);
    std::string value{"1"};  // --timeline is the one flag without a value
    if (key != "timeline") {
      util::require(i + 1 < rest.size(), "missing value for --" + key);
      value = rest[++i];
    }
    args.insert_or_assign(std::move(key), std::move(value));
  }
  return args;
}

std::string get(const std::map<std::string, std::string>& args,
                const std::string& key, const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    // The shared vocabulary (--trace/--profile/--threads/--seed/--help)
    // comes from bench::Options; everything it leaves in rest() is a
    // prtrsim domain flag.
    const auto common = bench::Options::parse("prtrsim", argc, argv);
    if (common.helpRequestedAndHandled(kDomainUsage)) return 0;
    const auto args = parseArgs(common.rest());

    // Sizes the process-wide exec pool; a single scenario run is serial,
    // but library users driving sweeps through the same process inherit it.
    exec::Pool::setGlobalThreads(common.threads());

    const auto registry = get(args, "registry", "paper") == "extended"
                              ? tasks::makeExtendedFunctions()
                              : tasks::makePaperFunctions();

    const auto calls = static_cast<std::size_t>(
        std::stoull(get(args, "calls", "100")));
    const util::Bytes bytes{std::stoull(get(args, "bytes", "10000000"))};
    const double locality = std::stod(get(args, "locality", "0.7"));
    util::Rng rng{common.seedOr(1)};

    tasks::Workload workload;
    const std::string kind = get(args, "workload", "roundrobin");
    if (kind == "roundrobin") {
      workload = tasks::makeRoundRobinWorkload(registry, calls, bytes);
    } else if (kind == "uniform") {
      workload = tasks::makeUniformWorkload(registry, calls, bytes, rng);
    } else if (kind == "markov") {
      workload = tasks::makeMarkovWorkload(registry, calls, bytes, locality, rng);
    } else if (kind == "phased") {
      workload = tasks::makePhasedWorkload(
          registry, calls, bytes, std::max<std::size_t>(calls / 10, 1),
          std::min<std::size_t>(3, registry.size()), rng);
    } else {
      throw util::DomainError{"unknown workload '" + kind + "'"};
    }

    runtime::ScenarioOptions options;
    const std::string layout = get(args, "layout", "dual");
    options.layout = layout == "single" ? xd1::Layout::kSinglePrr
                     : layout == "quad" ? xd1::Layout::kQuadPrr
                                        : xd1::Layout::kDualPrr;
    options.basis = get(args, "basis", "measured") == "estimated"
                        ? model::ConfigTimeBasis::kEstimated
                        : model::ConfigTimeBasis::kMeasured;
    // Lint the raw names exactly as prtr-lint would (MD011/MD012) before
    // converting to the typed options.
    const std::string cacheName = get(args, "cache", "lru");
    const std::string prefetch = get(args, "prefetch", "queue");
    const std::string prefetcherName =
        (prefetch == "queue" || prefetch == "none") ? "none" : prefetch;
    analyze::DiagnosticSink nameLint;
    analyze::checkScenarioNames(cacheName, prefetcherName, nameLint);
    if (nameLint.hasErrors()) {
      std::cerr << nameLint.toText();
      return 1;
    }
    options.cachePolicy = *runtime::cachePolicyFromString(cacheName);
    options.prepare = prefetch == "none" ? runtime::PrepareSource::kNone
                      : prefetch == "queue"
                          ? runtime::PrepareSource::kQueue
                          : runtime::PrepareSource::kPrefetcher;
    if (options.prepare == runtime::PrepareSource::kPrefetcher) {
      options.prefetcherKind = *runtime::prefetcherKindFromString(prefetcherName);
    }
    options.forceMiss = get(args, "force-miss", "0") == "1";
    options.tControl = util::Time::microseconds(
        std::stoll(get(args, "control-us", "10")));
    options.decisionLatency = util::Time::microseconds(
        std::stoll(get(args, "decision-us", "0")));

    // Chaos mode: deterministic fault injection + the recovery runtime.
    // runScenario's strict lint (FT rules) vets the combination.
    const double faultRate = std::stod(get(args, "fault-rate", "0"));
    if (faultRate > 0.0 || args.count("max-retries") ||
        args.count("fault-seed")) {
      options.faults.seed = std::stoull(get(args, "fault-seed", "24091"));
      options.faults.wordFlipRate = faultRate;
      options.faults.icapAbortRate = std::min(faultRate * 100.0, 0.02);
      options.recovery.enabled = true;
      options.recovery.maxRetries = static_cast<std::uint32_t>(
          std::stoul(get(args, "max-retries", "3")));
    }

    sim::Timeline timeline;
    if (args.count("timeline")) options.hooks.timeline = &timeline;
    obs::ChromeTrace trace;
    const std::string& tracePath = common.tracePath();
    if (!tracePath.empty()) options.hooks.trace = &trace;
    const std::string& profilePath = common.profilePath();
    const std::string metricsPath = get(args, "metrics", "");

    std::cout << "prtrsim: " << workload.callCount() << " calls x "
              << bytes.toString() << " (" << kind << "), layout " << layout
              << ", basis " << toString(options.basis) << ", cache "
              << cacheName << ", prefetch " << prefetch
              << (options.forceMiss ? ", force-miss" : "") << "\n\n";

    const runtime::ScenarioResult result =
        runtime::runScenario(registry, workload, options);
    std::cout << result.toString();
    if (options.recovery.enabled) {
      std::cout << "\nchaos (seed " << options.faults.seed << "):\n";
      for (const auto& [name, value] : result.metrics.counters) {
        if (name.find("fault.injected") != std::string::npos ||
            name.find("recovery.") != std::string::npos) {
          std::cout << "  " << name << " = " << value << "\n";
        }
      }
    }
    if (args.count("timeline")) {
      std::cout << "\nPRTR timeline:\n" << timeline.renderGantt(110);
    }
    if (!tracePath.empty()) {
      trace.writeFile(tracePath);
      std::cout << "\ntrace written to " << tracePath
                << " (load in chrome://tracing or ui.perfetto.dev)\n";
    }
    if (!metricsPath.empty()) {
      std::ofstream out{metricsPath};
      util::require(out.good(),
                    "cannot open " + metricsPath + " for writing");
      out << result.metrics.toJson() << '\n';
      std::cout << "metrics snapshot written to " << metricsPath << '\n';
    }
    if (!profilePath.empty()) {
      std::ofstream out{profilePath};
      util::require(out.good(),
                    "cannot open " + profilePath + " for writing");
      out << obs::hostMetrics().snapshot().toJson() << '\n';
      std::cout << "host profile written to " << profilePath << '\n';
    }
    return 0;
  } catch (const util::DomainError& error) {
    // A rejected flag or name: a usage error, exit 2 as at prtr-bench.
    std::cerr << "prtrsim: " << error.what() << '\n';
    return 2;
  } catch (const std::exception& error) {
    std::cerr << "prtrsim: " << error.what() << '\n';
    return 1;
  }
}
