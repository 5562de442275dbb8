#pragma once
/// \file case.hpp
/// What a prtr-bench case is. Every entry of cases.def is one function
/// prtr::bench::cases::<name> that prints its tables, registers them and
/// its key scalars on the report, and returns 0, or 1 when a gate it checks
/// fails. Flags, --help, BenchReport::finish() and errors belong to the
/// driver (main.cpp).

#include <cstddef>

#include "obs/bench_io.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"

namespace prtr::bench {

namespace cases {
#define PRTR_BENCH_CASE(name, source, summary, flags) \
  int name(obs::BenchReport& report);
#include "cases.def"
#undef PRTR_BENCH_CASE
}  // namespace cases

/// Under --trace, runs `options` on the paper functions' round-robin
/// workload (`calls` calls of 1 MB) with inline timeline verification into
/// report.trace() and registers the "traced_speedup" scalar; otherwise does
/// nothing. Cases whose headline numbers are analytic or aggregated
/// (table2, fig5, chaos) capture their operating point this way.
inline void traceScenario(obs::BenchReport& report,
                          runtime::ScenarioOptions options, std::size_t calls) {
  options.hooks.trace = report.trace();
  if (options.hooks.trace == nullptr) return;
  options.verify = true;
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, calls, util::Bytes{1'000'000});
  report.scalar("traced_speedup",
                runtime::runScenario(registry, workload, options).speedup);
}

}  // namespace prtr::bench
