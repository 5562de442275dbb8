// Extension bench: what-if on newer silicon. The paper's conclusions hinge
// on the Virtex-II-Pro's slow 8-bit/66 MHz configuration interfaces; this
// bench recomputes the Table-2-style quantities and the Figure-5 peaks for
// the Virtex-4 (32-bit ICAP at 100 MHz) and for a hypothetical ideal ICAP
// controller with zero FSM overhead, quantifying how much of the PRTR
// ceiling is technology rather than model.
#include <iostream>

#include "case.hpp"
#include "config/icap_controller.hpp"
#include "config/port.hpp"
#include "fabric/device.hpp"
#include "model/bounds.hpp"
#include "util/table.hpp"

int prtr::bench::cases::whatif(obs::BenchReport& breport) {

  struct Scenario {
    const char* name;
    fabric::Device device;
    config::Port icap;
    std::uint32_t fsmOverheadCyclesPerWord;
  };
  Scenario scenarios[] = {
      {"XC2VP50 + paper's controller", fabric::makeXc2vp50(),
       config::makeIcapV2(), 9},
      {"XC2VP50 + ideal controller", fabric::makeXc2vp50(),
       config::makeIcapV2(), 0},
      {"XC4VLX60 + V4 ICAP (32b/100MHz)", fabric::makeXc4vlx60(),
       config::makeIcapV4(), 2},
  };

  std::cout << "=== What-if: configuration technology vs the PRTR ceiling "
               "===\n\n";
  util::Table table{{"platform", "full bytes", "ICAP eff.", "T_PRTR (1/6 dev)",
                     "X_PRTR", "H=0 peak S_inf"}};
  for (auto& s : scenarios) {
    // A PRR sized at ~1/6 of the device, mirroring the dual-PRR ratio.
    const std::uint32_t frames = s.device.geometry().totalFrames() / 6;
    const util::Bytes partial =
        s.device.geometry().partialBitstreamBytes(frames);

    sim::Simulator sim;
    config::ConfigMemory memory{s.device};
    sim::SimplexLink link{sim, "in", util::DataRate::megabytesPerSecond(1400)};
    config::IcapTiming timing;
    timing.fsmOverheadCyclesPerWord = s.fsmOverheadCyclesPerWord;
    config::IcapController icap{sim, memory, link, s.icap, timing};

    const util::Time tPrtr = icap.drainTime(partial);
    // Full configuration through the external parallel port at its raw
    // rate (the best case a fixed vendor API could reach).
    const util::Time tFrtr =
        config::makeSelectMap().transferTime(s.device.geometry().fullBitstreamBytes());
    const double xPrtr = std::min(1.0, tPrtr.toSeconds() / tFrtr.toSeconds());
    const model::Peak peak = model::peakSpeedup(0.0, xPrtr);

    table.row()
        .cell(s.name)
        .cell(s.device.geometry().fullBitstreamBytes().toString())
        .cell(icap.effectiveThroughput().toString())
        .cell(tPrtr.toString())
        .cell(util::formatDouble(xPrtr, 4))
        .cell(util::formatDouble(peak.speedup, 4));
  }
  table.print(std::cout);
  std::cout << "\nFaster internal ports shrink X_PRTR and raise the H=0 "
               "ceiling as (1+X)/X -- the paper's 'future usage in HPRC' "
               "argument, quantified.\n";

  std::cout << "\n=== Device catalog: configuration cost across three FPGA "
               "generations ===\n\n";
  util::Table catalog{{"device", "frames", "full bytes", "usable LUTs",
                       "full config @66MB/s", "frame time"}};
  for (const std::string& name : fabric::deviceCatalog()) {
    const fabric::Device dev = fabric::makeDevice(name);
    const util::Bytes full = dev.geometry().fullBitstreamBytes();
    catalog.row()
        .cell(name)
        .cell(std::uint64_t{dev.geometry().totalFrames()})
        .cell(full.toString())
        .cell(std::uint64_t{dev.usableResources().luts})
        .cell(config::makeSelectMap().transferTime(full).toString())
        .cell(config::makeSelectMap()
                  .transferTime(util::Bytes{dev.geometry().encoding().frameBytes})
                  .toString());
  }
  catalog.print(std::cout);
  std::cout << "\nBigger parts raise T_FRTR (and with it the PRTR win for "
               "fixed task sizes); newer families shrink the frame -- the "
               "reconfiguration quantum -- by ~6.5x.\n";
  breport.table("whatif_platforms", table);
  breport.table("device_catalog", catalog);
  return 0;
}
