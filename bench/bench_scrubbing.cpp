// Extension bench: SEU scrubbing. Sweeps upset rate x scrub period over a
// dual-PRR region and reports detection/repair behaviour and the share of
// configuration-port bandwidth the scrubber consumes -- another tenant of
// the same bandwidth the paper's model prices for reconfiguration. The
// sweep's exact totals are scalars, gated by bench/baselines.
#include <iostream>

#include "bitstream/builder.hpp"
#include "case.hpp"
#include "config/scrubber.hpp"
#include "fabric/floorplan.hpp"
#include "sim/link.hpp"
#include "util/table.hpp"

int prtr::bench::cases::scrubbing(obs::BenchReport& breport) {
  std::cout << "=== SEU scrubbing over one dual-PRR region (380 frames, "
               "2 s mission) ===\n\n";
  util::Table table{{"upset mean", "scrub period", "injected", "detected",
                     "repairs", "residual", "port busy", "busy %"}};

  const util::Time mission = util::Time::seconds(2.0);
  std::uint64_t injectedTotal = 0;
  std::uint64_t detectedTotal = 0;
  std::uint64_t repairsTotal = 0;
  std::uint64_t residualTotal = 0;
  std::uint64_t framesChecked = 0;
  std::uint64_t observedUpsets = 0;
  util::Time observedExposure;
  for (const std::int64_t upsetMs : {500, 100, 20}) {
    for (const std::int64_t scrubMs : {250, 100, 25}) {
      fabric::Floorplan plan = fabric::makeDualPrrLayout();
      bitstream::Builder builder{plan.device()};
      sim::Simulator sim;
      config::ConfigMemory memory{plan.device()};
      memory.applyFull(*bitstream::parse(builder.buildFull(1), plan.device()));
      sim::SimplexLink link{sim, "HT-in",
                            util::DataRate::megabytesPerSecond(1400)};
      config::IcapController icap{sim, memory, link};

      const bitstream::Bitstream golden =
          builder.buildModulePartial(plan.prr(0), 7);
      memory.applyPartial(*bitstream::parse(golden, plan.device()));

      config::Scrubber scrubber{sim,    memory, icap, plan.device(), golden,
                                util::Time::milliseconds(scrubMs)};
      config::UpsetInjector injector{
          sim, memory, plan.prr(0).frames(plan.device()),
          util::Time::milliseconds(upsetMs), 1234};
      scrubber.observeInjector(&injector);
      sim.spawn(
          scrubber.run(static_cast<std::uint64_t>(2000 / scrubMs)));
      sim.spawn(injector.run(mission));
      sim.run();

      const auto& stats = scrubber.stats();
      const std::size_t residual = config::verifyRegion(memory, golden).size();
      const double busyPct = 100.0 * stats.busyTime().toSeconds() /
                             mission.toSeconds();
      table.row()
          .cell(util::Time::milliseconds(upsetMs).toString())
          .cell(util::Time::milliseconds(scrubMs).toString())
          .cell(injector.injected())
          .cell(stats.upsetsDetected)
          .cell(stats.repairs)
          .cell(std::uint64_t{residual})
          .cell(stats.busyTime().toString())
          .cell(util::formatDouble(busyPct, 3) + "%");
      injectedTotal += injector.injected();
      detectedTotal += stats.upsetsDetected;
      repairsTotal += stats.repairs;
      residualTotal += residual;
      framesChecked += stats.framesChecked;
      observedUpsets += stats.observedUpsets;
      observedExposure += stats.observedExposure;
    }
  }
  table.print(std::cout);
  std::cout << "\nFaster scrubbing shortens the corrupted-exposure window "
               "but eats configuration-port bandwidth (readback 19.9 ms + "
               "repair 19.9 ms per pass at the paper's effective ICAP "
               "rate); at a 25 ms period the port is busy most of the "
               "mission.\n";
  breport.table("scrubbing", table);
  breport.scalar("upsets_injected_total", injectedTotal);
  breport.scalar("upsets_detected_total", detectedTotal);
  breport.scalar("repairs_total", repairsTotal);
  breport.scalar("residual_frames_total", residualTotal);
  breport.scalar("frames_checked_total", framesChecked);
  breport.scalar("observed_upsets_total", observedUpsets);
  breport.scalar("observed_exposure_ps",
                 static_cast<std::uint64_t>(observedExposure.ps()));
  return 0;
}
