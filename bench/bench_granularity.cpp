// Ablation C: PRR granularity. Paper section 5: "in order to achieve the
// optimal performance ... the partitions (PRRs) must be so fine grained to
// match the task time requirements, i.e. X_PRTR = X_task". This bench
// sweeps hypothetical PRR sizes (frames per region) and, for each, finds
// the task size at which the speedup peaks and the peak value (1+X)/X.
#include <iostream>

#include "case.hpp"
#include "config/port.hpp"
#include "fabric/device.hpp"
#include "model/bounds.hpp"
#include "util/table.hpp"

int prtr::bench::cases::granularity(obs::BenchReport& breport) {
  const fabric::Device device = fabric::makeXc2vp50();
  const auto& geometry = device.geometry();
  const config::Port selectMap = config::makeSelectMap();
  const double tFull = selectMap.transferTime(geometry.fullBitstreamBytes())
                           .toSeconds();

  std::cout << "=== Ablation C: PRR granularity vs peak speedup (H = 0, "
               "estimated basis) ===\n\n";
  util::Table table{{"PRR frames", "partial bytes", "X_PRTR",
                     "peak S_inf = (1+X)/X", "task time at peak"}};
  for (const std::uint32_t frames :
       {2246u, 1123u, 834u, 380u, 190u, 86u, 22u, 4u, 1u}) {
    const util::Bytes bytes = geometry.partialBitstreamBytes(frames);
    const double xPrtr =
        selectMap.transferTime(bytes).toSeconds() / tFull;
    const model::Peak peak = model::peakSpeedup(0.0, std::min(xPrtr, 1.0));
    table.row()
        .cell(std::uint64_t{frames})
        .cell(bytes.toString())
        .cell(util::formatDouble(xPrtr, 4))
        .cell(util::formatDouble(peak.speedup, 4))
        .cell(util::Time::seconds(peak.xTask * tFull).toString());
  }
  table.print(std::cout);

  std::cout << "\nFiner partitions push the peak towards smaller tasks and "
               "raise it as (1+X)/X.\n"
               "The practical floor: a PRR must still fit the largest module "
               "(median filter needs 3141 LUTs ~ 5 CLB columns ~ 110 "
               "frames) plus bus macros, and the paper warns that the "
               "design-cycle cost grows with the PRR count (section 5).\n";
  breport.table("granularity", table);
  return 0;
}
