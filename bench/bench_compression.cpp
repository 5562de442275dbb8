// Extension bench: bitstream compression. Two levers on the measured
// configuration path -- ZRL wire compression (smaller host transfer) and
// multi-frame-write dedup (fewer ICAP payload writes) -- swept against
// module occupancy, plus the end-to-end effect of MFW on a Figure-9-style
// operating point.
#include <iostream>

#include "bitstream/builder.hpp"
#include "bitstream/compress.hpp"
#include "case.hpp"
#include "config/icap_controller.hpp"
#include "config/memory.hpp"
#include "fabric/floorplan.hpp"
#include "model/bounds.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/table.hpp"

int prtr::bench::cases::compression(obs::BenchReport& breport) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};

  std::cout << "=== Compression vs module occupancy (dual-PRR stream, "
               "404,388 B raw) ===\n\n";
  util::Table table{{"occupancy", "ZRL ratio", "MFW unique/total",
                     "MFW wire bytes", "T_PRTR raw", "T_PRTR MFW",
                     "H=0 peak (raw)", "H=0 peak (MFW)"}};

  sim::Simulator sim;
  config::ConfigMemory memory{plan.device()};
  sim::SimplexLink link{sim, "in", util::DataRate::megabytesPerSecond(1400)};
  const config::IcapController icap{sim, memory, link};
  const util::Time tFrtrMeasured =
      util::Time::seconds(1.67804);  // Table 2 measured full config

  for (const double occupancy : {0.1, 0.25, 0.5, 0.75, 1.0}) {
    const bitstream::Bitstream stream =
        builder.buildModulePartial(plan.prr(0), 7, occupancy);
    const double zrl = bitstream::zrlRatio(stream.bytes());
    const bitstream::MfwPlan mfw = bitstream::planMfw(stream, plan.device());

    const util::Time rawTime = icap.drainTime(stream.size());
    const util::Time mfwTime = icap.drainTime(mfw.wireBytes);
    const double xRaw = rawTime.toSeconds() / tFrtrMeasured.toSeconds();
    const double xMfw = mfwTime.toSeconds() / tFrtrMeasured.toSeconds();

    table.row()
        .cell(util::formatDouble(occupancy, 3))
        .cell(util::formatDouble(zrl, 3))
        .cell(std::to_string(mfw.uniqueFrames) + "/" +
              std::to_string(mfw.totalFrames))
        .cell(mfw.wireBytes.toString())
        .cell(rawTime.toString())
        .cell(mfwTime.toString())
        .cell(util::formatDouble(model::peakSpeedup(0.0, xRaw).speedup, 4))
        .cell(util::formatDouble(model::peakSpeedup(0.0, xMfw).speedup, 4));
  }
  table.print(std::cout);

  // End-to-end: one small-task operating point with MFW on/off. The paper
  // functions occupy 31-69% of a dual PRR, so their streams carry zero
  // fill that MFW removes.
  std::cout << "\n=== End-to-end effect at X_task ~ 0.008 (measured basis, "
               "H=0) ===\n\n";
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 200, util::Bytes{2'000'000});
  for (const bool mfwOn : {false, true}) {
    runtime::ScenarioOptions so;
    so.forceMiss = true;
    so.mfwCompression = mfwOn;
    const auto result = runtime::runScenario(registry, workload, so);
    std::cout << (mfwOn ? "MFW on : " : "MFW off: ") << "S = " << result.speedup
              << " (PRTR total " << result.prtr.total.toString() << ")\n";
    breport.scalar(mfwOn ? "speedup_mfw_on" : "speedup_mfw_off",
                   result.speedup);
  }
  std::cout << "\nMFW shrinks the effective X_PRTR, which raises the "
               "configuration-dominant ceiling exactly as equation (7) "
               "predicts.\n";
  breport.table("compression_occupancy", table);
  return 0;
}
