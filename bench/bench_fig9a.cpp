// Reproduces Figure 9(a): PRTR speedup vs task time requirement using the
// ESTIMATED configuration times (T_FRTR = 36.09 ms, dual-PRR T_PRTR =
// 6.12 ms, X_PRTR = 0.17), on the simulated Cray XD1 with H = 0 and
// T_control = 10 us. Peak expectation: "the PRTR can not exceed 7 times
// the performance of FRTR" (paper section 5).
#include <iostream>

#include "analysis/figures.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "model/bounds.hpp"
#include "obs/bench_io.hpp"
#include "obs/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace prtr;
  obs::BenchReport report{"fig9a", argc, argv};
  analysis::Fig9Options opts;
  opts.basis = model::ConfigTimeBasis::kEstimated;
  opts.points = 21;
  opts.xTaskLo = 1e-3;
  opts.xTaskHi = 50.0;
  opts.nCalls = 400;
  opts.threads = report.threads();
  opts.artifacts = &exec::ArtifactCache::global();

  obs::ChromeTrace trace;
  if (report.traceRequested()) opts.trace = &trace;

  std::cout << "=== Figure 9(a): speedup vs X_task, estimated configuration "
               "times (dual PRR, H=0) ===\n\n";
  const auto points = analysis::makeFig9(opts);
  std::cout << analysis::fig9Plot(points, "Fig 9(a), estimated basis") << '\n';
  analysis::fig9Table(points).print(std::cout);

  double best = 0.0;
  for (const auto& p : points) best = std::max(best, p.simSpeedup);
  const model::Peak peak = model::peakSpeedup(0.0, 6.12 / 36.09);
  std::cout << "\nPeak simulated speedup: " << best
            << "  (paper: cannot exceed ~7x; eq.7 peak = " << peak.speedup
            << " at X_task = " << peak.xTask << ")\n";
  std::cout << "Task-dominant cap: every X_task >= 1 point stays below 2x.\n";
  report.table("fig9a", analysis::fig9Table(points));
  report.scalar("peak_sim_speedup", best);
  report.scalar("peak_model_speedup", peak.speedup);
  report.metrics(exec::Pool::global().metricsSnapshot());
  report.metrics(exec::ArtifactCache::global().metricsSnapshot());

  if (report.traceRequested()) trace.writeFile(report.tracePath());
  return report.finish();
}
