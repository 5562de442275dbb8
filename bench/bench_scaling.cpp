// Extension bench: chassis-level scaling. The paper's platform is a
// parallel reconfigurable supercomputer; this bench runs the same workload
// on 1..6 blades and shows (a) near-linear scaling once the per-blade
// initial full configuration amortizes and (b) the Table-2 "measured" full
// configuration acting as the Amdahl serial term for short workloads.
#include <iostream>

#include "case.hpp"
#include "hprc/chassis.hpp"
#include "util/table.hpp"

int prtr::bench::cases::scaling(obs::BenchReport& breport) {
  const auto registry = tasks::makePaperFunctions();

  for (const auto basis : {model::ConfigTimeBasis::kEstimated,
                           model::ConfigTimeBasis::kMeasured}) {
    std::cout << "=== Chassis scaling, " << toString(basis)
              << " configuration times (60 calls x 10 MB, PRTR, H=0) ===\n\n";
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 60, util::Bytes{10'000'000});
    util::Table table{{"blades", "makespan", "speedup", "efficiency",
                       "balance", "reconfigs"}};
    double base = 0.0;
    for (std::size_t blades = 1; blades <= 6; ++blades) {
      hprc::ChassisOptions options;
      options.blades = blades;
      options.threads = breport.options().threads();
      options.scenario.forceMiss = true;
      options.scenario.basis = basis;
      const hprc::ChassisReport report =
          hprc::runChassis(registry, workload, options);
      if (blades == 6) breport.metrics(report.metrics);
      if (blades == 1) base = report.makespan.toSeconds();
      const double speedup = base / report.makespan.toSeconds();
      table.row()
          .cell(std::uint64_t{blades})
          .cell(report.makespan.toString())
          .cell(util::formatDouble(speedup, 4))
          .cell(util::formatDouble(speedup / static_cast<double>(blades), 4))
          .cell(util::formatDouble(report.balance(), 4))
          .cell(report.configurations);
    }
    table.print(std::cout);
    std::cout << '\n';
    breport.table(std::string{"scaling_"} + toString(basis), table);
  }
  std::cout << "On the measured basis every blade pays the 1.678 s vendor-API "
               "full configuration up front, capping short-workload scaling "
               "-- a chassis-level consequence of Table 2.\n";
  return 0;
}
