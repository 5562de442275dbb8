// Reproduces Table 2 of the paper: bitstream sizes and estimated/measured
// configuration times for the full, single-PRR, and dual-PRR layouts, with
// the paper's own values printed side by side.
#include <iostream>

#include "analysis/figures.hpp"
#include "case.hpp"

int prtr::bench::cases::table2(obs::BenchReport& report) {
  std::cout << "=== Table 2: Experimental values for model parameters ===\n\n";
  const util::Table table = analysis::makeTable2();
  table.print(std::cout);
  std::cout
      << "\nEstimated = bitstream bytes / 66 MB/s SelectMap (lower bound).\n"
         "Measured  = vendor-API driver path (full: 12 ms + 699.5 ns/B) and\n"
         "            ICAP controller path (partials: 20.31 MB/s effective "
         "FSM drain).\n"
         "Full size matches the paper exactly; PRR sizes are frame-column "
         "quantized (within 0.06%).\n";
  report.table("table2", table);

  // The table itself is analytic; --trace captures the measured-basis
  // dual-PRR scenario whose configuration times the table tabulates.
  runtime::ScenarioOptions traced;
  traced.layout = xd1::Layout::kDualPrr;
  traced.basis = model::ConfigTimeBasis::kMeasured;
  traceScenario(report, traced, 12);
  return 0;
}
