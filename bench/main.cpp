// prtr-bench: one driver for the paper's reproductions, the extension
// ablations and the CI gates. `prtr-bench <case> [options]` runs the case
// named in cases.def against one obs::BenchReport and owns the rest of the
// process: the shared bench::Options flags, --help, and finish(), which
// runs whatever the case's verdict, so a failed gate still leaves its
// --json document behind.
//
// Exit status: 0 ok; 1 a gate the case checks failed; 2 a usage or runtime
// error, reported as one "prtr-bench: <message>" line on stderr.
#include <algorithm>
#include <exception>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>

#include "case.hpp"
#include "util/error.hpp"

namespace {

using namespace prtr;

struct Case {
  std::string_view name, summary, flags;
  int (*run)(obs::BenchReport&);
};

constexpr Case kCases[] = {
#define PRTR_BENCH_CASE(name, source, summary, flags) \
  {#name, summary, flags, &bench::cases::name},
#include "cases.def"
#undef PRTR_BENCH_CASE
};

std::string usage() {
  std::string cases = "cases:\n";
  for (const Case& c : kCases) {
    std::string line = "  " + std::string{c.name};
    line.resize(std::max<std::size_t>(line.size() + 1, 16), ' ');
    cases += line + std::string{c.summary} + '\n';
  }
  return bench::Options::usage("prtr-bench <case>", cases);
}

int run(int argc, const char* const* argv) {
  const std::string_view name = argc < 2 ? "" : argv[1];
  if (name.empty() || name == "--help") {
    (name.empty() ? std::cerr : std::cout) << usage();
    return name.empty() ? 2 : 0;
  }
  const Case* found =
      std::find_if(std::begin(kCases), std::end(kCases),
                   [name](const Case& c) { return c.name == name; });
  if (found == std::end(kCases)) {
    throw util::DomainError{"unknown case '" + std::string{name} +
                            "' (prtr-bench --help lists the cases)"};
  }
  // The case name stands in for argv[0], so parse() sees only the flags.
  const bench::Options options = bench::Options::parse(
      "prtr-bench " + std::string{name}, argc - 1, argv + 1);
  if (options.helpRequestedAndHandled(std::string{found->flags})) return 0;
  if (found->flags.empty() && !options.rest().empty()) {
    throw util::DomainError{"unknown argument '" + options.rest().front() +
                            "'"};
  }
  obs::BenchReport report{std::string{name}, options};
  const int status = found->run(report);
  report.finish();
  if (options.traceRequested()) {
    std::cout << "trace written to " << options.tracePath() << '\n';
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "prtr-bench: " << error.what() << '\n';
    return 2;
  }
}
