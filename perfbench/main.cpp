// prtr_perfbench: runs one benchmark workload and prints every metric by
// name and unit, then one JSON result line. perfbench/run.py builds and
// drives it; see perfbench/README.md.
//
// Usage: prtr_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                       --spec-dir DIR [--digests FILE] [--trace-out FILE]
//                       [--setup-only | --digest-only]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "exec/pool.hpp"
#include "host.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::cerr << "prtr_perfbench: " << why
            << "\nusage: prtr_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --spec-dir DIR [--digests FILE] [--trace-out FILE] "
               "[--setup-only | --digest-only]\nworkloads:";
  for (const std::string_view w : perfbench::kWorkloads) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.12g", std::isfinite(value) ? value : 0.0);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.startWall = perfbench::wallSeconds();
  bool digestOnly = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") options.workload = value();
      else if (arg == "--seed") options.seed = std::stoull(value());
      else if (arg == "--seconds") options.seconds = std::stod(value());
      else if (arg == "--trace") options.trace = value() != "0";
      else if (arg == "--spec-dir") options.specDir = value();
      else if (arg == "--digests") options.digestFile = value();
      else if (arg == "--trace-out") options.traceOut = value();
      else if (arg == "--setup-only") options.setupOnly = true;
      else if (arg == "--digest-only") digestOnly = true;
      else throw std::invalid_argument("unknown argument " + arg);
    }
  } catch (const std::exception& e) {
    return usage(e.what());
  }
  if (!perfbench::isWorkload(options.workload)) {
    return usage("unknown workload '" + options.workload + "'");
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  // One worker thread everywhere: the host delivers about one core.
  prtr::exec::Pool::setGlobalThreads(1);

  perfbench::RunResult result;
  try {
    if (digestOnly) {
      std::cout << options.workload << ' ' << options.seed << ' '
                << perfbench::checkDigest(options.workload, options.seed,
                                          options.specDir)
                << '\n';
      return 0;
    }
    result = perfbench::runWorkload(options);
  } catch (const std::exception& e) {
    std::cerr << "prtr_perfbench: " << options.workload << ": " << e.what() << '\n';
    return 1;
  }

  for (const std::string& note : result.notes) std::cout << note << '\n';
  for (const perfbench::Metric& m : result.report) {
    std::cout << "metric " << m.name << " = " << number(m.value) << ' ' << m.unit
              << '\n';
  }
  for (const std::string& error : result.errors) {
    std::cerr << "prtr_perfbench: check failed: " << error << '\n';
  }
  const double attempted = static_cast<double>(result.attempted);
  if (!options.setupOnly) {
    std::cout << "metric ops_failed_frac = "
              << number(attempted > 0 ? static_cast<double>(result.failed) / attempted
                                      : 0.0)
              << " ratio\n";
  }
  std::cout << "metric setup_s = " << number(result.setupSeconds) << " s\n";

  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed
            << ", \"setup_s\": " << number(result.setupSeconds)
            << ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::Metric& m : result.gated) {
    std::cout << sep << '"' << m.name << "\": {\"value\": " << number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  std::cout << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
