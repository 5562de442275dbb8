// Extension bench: HW/SW codesign (the software tasks the paper deferred).
// Sweeps task size and compares the four partitioning policies; the
// crossover where hardware starts paying for its reconfiguration is the
// system-level reading of the paper's X_task axis.
#include <iostream>

#include "case.hpp"
#include "runtime/hwsw.hpp"
#include "tasks/workload.hpp"
#include "util/table.hpp"

namespace {

prtr::runtime::HwSwReport runPolicy(prtr::runtime::Partitioning policy,
                                    const prtr::tasks::Workload& workload) {
  using namespace prtr;
  sim::Simulator sim;
  xd1::Node node{sim};
  auto registry = tasks::makePaperFunctions();
  bitstream::Library library{
      node.floorplan(),
      registry.moduleSpecs(node.floorplan().prr(0).resources(node.device()))};
  runtime::LruCache cache{2};
  runtime::HwSwOptions options;
  options.policy = policy;
  runtime::HwSwExecutor executor{node, registry, library, cache, options};
  return executor.run(workload);
}

}  // namespace

int prtr::bench::cases::hwsw(obs::BenchReport& breport) {
  const auto registry = tasks::makePaperFunctions();

  std::cout << "=== Extension: HW/SW partitioning vs task size (3 cores, "
               "dual PRR, measured basis) ===\n\n";
  util::Table table{{"task bytes", "always-hw", "always-sw",
                     "static-threshold", "adaptive", "adaptive hw-share"}};
  for (const std::uint64_t bytes :
       {10'000ull, 100'000ull, 1'000'000ull, 5'000'000ull, 20'000'000ull,
        100'000'000ull}) {
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 30, util::Bytes{bytes});
    const auto hw = runPolicy(runtime::Partitioning::kAlwaysHardware, workload);
    const auto sw = runPolicy(runtime::Partitioning::kAlwaysSoftware, workload);
    const auto st =
        runPolicy(runtime::Partitioning::kStaticThreshold, workload);
    const auto ad = runPolicy(runtime::Partitioning::kAdaptive, workload);
    breport.metrics(ad.base.metrics);
    table.row()
        .cell(util::Bytes{bytes}.toString())
        .cell(hw.base.total.toString())
        .cell(sw.base.total.toString())
        .cell(st.base.total.toString())
        .cell(ad.base.total.toString())
        .cell(util::formatDouble(ad.hardwareFraction(), 3));
  }
  table.print(std::cout);
  std::cout << "\nSmall tasks: software wins (a partial reconfiguration "
               "costs ~20 ms). Large tasks: the 42x-faster fabric wins. "
               "Adaptive tracks the better side of the crossover.\n"
               "Caveat visible at 5 MB: the greedy per-call heuristic does "
               "not amortize the one-time 1.678 s full configuration, so "
               "right at the crossover it can commit to hardware too "
               "early -- amortization-aware placement is future work.\n";
  breport.table("hwsw_policies", table);
  return 0;
}
