// Reproduces Figure 5 of the paper: asymptotic performance of PRTR
// (equation 7) vs the normalized task time requirement, for a family of
// pre-fetching hit ratios, at X_decision = X_control = 0.
#include <iostream>

#include "analysis/figures.hpp"
#include "case.hpp"
#include "model/bounds.hpp"

int prtr::bench::cases::fig5(obs::BenchReport& report) {
  const std::size_t threads = report.options().threads();
  const std::vector<double> hitRatios{0.0, 0.25, 0.5, 0.75, 1.0};
  // The three X_PRTR values of Table 2's normalized column:
  // 0.37 (single PRR est.), 0.17 (dual PRR est.), 0.012 (dual PRR meas.).
  for (const double xPrtr : {0.37, 0.17, 0.012}) {
    std::cout << "=== Figure 5: asymptotic speedup S_inf vs X_task, X_PRTR = "
              << xPrtr << " ===\n";
    const auto series = analysis::makeFig5Series(xPrtr, hitRatios, 161, 1e-3,
                                                 100.0, threads);
    util::PlotOptions po;
    po.logX = true;
    po.logY = true;
    po.xLabel = "X_task";
    po.yLabel = "S_inf";
    std::cout << util::renderAsciiPlot(series, po) << '\n';

    const model::Peak h0 = model::peakSpeedup(0.0, xPrtr);
    std::cout << "H=0 peak: S_inf = " << h0.speedup
              << " at X_task = X_PRTR = " << h0.xTask << '\n';
    std::cout << "X_task >= 1 cap: S_inf <= 2 for every H (e.g. at X_task=1: "
              << model::idealAsymptote(1.0, xPrtr, 0.0) << ")\n\n";
    report.scalar("peak_sinf_xprtr_" + util::formatDouble(xPrtr, 3),
                  h0.speedup);
  }

  std::cout << "CSV (X_PRTR=0.17):\nxTask";
  const auto csvSeries = analysis::makeFig5Series(0.17, hitRatios, 31, 1e-3,
                                                  100.0, threads);
  for (const auto& s : csvSeries) std::cout << ',' << s.name;
  std::cout << '\n';
  std::vector<std::string> header{"xTask"};
  for (const auto& s : csvSeries) header.push_back(s.name);
  util::Table csv{header};
  for (std::size_t i = 0; i < csvSeries.front().x.size(); ++i) {
    std::cout << csvSeries.front().x[i];
    csv.row().cell(csvSeries.front().x[i], 6);
    for (const auto& s : csvSeries) {
      std::cout << ',' << s.y[i];
      csv.cell(s.y[i], 6);
    }
    std::cout << '\n';
  }
  report.table("fig5_xprtr_0.17", csv);

  // The curves are closed-form; --trace captures the simulated scenario
  // behind the X_PRTR = 0.17 family (dual PRR, estimated basis).
  runtime::ScenarioOptions traced;
  traced.layout = xd1::Layout::kDualPrr;
  traced.basis = model::ConfigTimeBasis::kEstimated;
  traceScenario(report, traced, 12);
  return 0;
}
