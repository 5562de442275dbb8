// Ablation A: sensitivity of the PRTR speedup to the transfer-of-control
// and pre-fetch-decision overheads. The paper (section 3.1) plots Figure 5
// at X_control = X_decision = 0 and notes "these overheads will reduce the
// final performance if non-zero values are considered" -- this bench
// quantifies by how much, analytically and on the simulator.
#include <iostream>

#include "case.hpp"
#include "model/model.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/table.hpp"

int prtr::bench::cases::overheads(obs::BenchReport& breport) {

  // Analytic sweep at the estimated dual-PRR operating point.
  std::cout << "=== Ablation A1 (analytic): S_inf vs overheads at X_task = "
               "X_PRTR = 0.17, H = 0 ===\n\n";
  util::Table analytic{{"X_control", "X_decision", "S_inf", "loss vs ideal"}};
  model::Params base;
  base.xTask = 0.17;
  base.xPrtr = 0.17;
  base.hitRatio = 0.0;
  const double ideal = model::asymptoticSpeedup(base);
  for (const double xc : {0.0, 0.001, 0.01, 0.05}) {
    for (const double xd : {0.0, 0.001, 0.01, 0.05}) {
      model::Params p = base;
      p.xControl = xc;
      p.xDecision = xd;
      const double s = model::asymptoticSpeedup(p);
      analytic.row()
          .cell(util::formatDouble(xc, 3))
          .cell(util::formatDouble(xd, 3))
          .cell(util::formatDouble(s, 4))
          .cell(util::formatDouble((1.0 - s / ideal) * 100.0, 3) + "%");
    }
  }
  analytic.print(std::cout);

  // Simulated sweep of the transfer-of-control time.
  std::cout << "\n=== Ablation A2 (simulated): speedup vs T_control, "
               "estimated basis, X_task ~ 0.17 ===\n\n";
  const auto registry = tasks::makePaperFunctions();
  util::Table simulated{{"T_control", "S (simulated)", "S (model)"}};
  for (const std::int64_t controlUs : {0, 10, 100, 1000, 5000}) {
    runtime::ScenarioOptions so;
    so.basis = model::ConfigTimeBasis::kEstimated;
    so.forceMiss = true;
    so.tControl = util::Time::microseconds(controlUs);
    const auto workload =
        tasks::makeRoundRobinWorkload(registry, 80, util::Bytes{1'100'000});
    const auto result = runtime::runScenario(registry, workload, so);
    simulated.row()
        .cell(so.tControl.toString())
        .cell(util::formatDouble(result.speedup, 4))
        .cell(util::formatDouble(result.modelSpeedup, 4));
  }
  simulated.print(std::cout);
  std::cout << "\nBoth overheads only hurt: the ideal Figure-5 curves are "
               "upper bounds.\n";
  breport.table("analytic_overheads", analytic);
  breport.table("simulated_tcontrol", simulated);
  return 0;
}
