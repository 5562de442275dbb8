// Reproduces Figure 9(b): PRTR speedup vs task time requirement using the
// MEASURED configuration times (T_FRTR = 1678.04 ms via the vendor API,
// dual-PRR T_PRTR = 19.77 ms via the ICAP controller, X_PRTR = 0.012).
// Peak expectation: "can reach up to 87x higher than the performance of
// FRTR" (paper section 5) -- approached asymptotically; finite runs and
// the dual-channel input constraint land slightly below.
#include <iostream>

#include "analysis/figures.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "model/bounds.hpp"
#include "obs/bench_io.hpp"
#include "obs/trace_export.hpp"

int main(int argc, char** argv) {
  using namespace prtr;
  obs::BenchReport report{"fig9b", argc, argv};
  analysis::Fig9Options opts;
  opts.basis = model::ConfigTimeBasis::kMeasured;
  opts.points = 21;
  opts.xTaskLo = 1e-3;
  opts.xTaskHi = 50.0;
  opts.nCalls = 400;
  opts.threads = report.threads();
  opts.artifacts = &exec::ArtifactCache::global();

  obs::ChromeTrace trace;
  if (report.traceRequested()) opts.trace = &trace;

  std::cout << "=== Figure 9(b): speedup vs X_task, measured configuration "
               "times (dual PRR, H=0) ===\n\n";
  const auto points = analysis::makeFig9(opts);
  std::cout << analysis::fig9Plot(points, "Fig 9(b), measured basis") << '\n';
  analysis::fig9Table(points).print(std::cout);

  double bestSim = 0.0;
  double bestInf = 0.0;
  for (const auto& p : points) {
    bestSim = std::max(bestSim, p.simSpeedup);
    bestInf = std::max(bestInf, p.modelAsymptote);
  }
  std::cout << "\nPeak simulated speedup (n=400 calls): " << bestSim
            << "; eq.7 asymptotic peak on this grid: " << bestInf
            << " (paper: \"up to 87x\")\n";
  report.table("fig9b", analysis::fig9Table(points));
  report.scalar("peak_sim_speedup", bestSim);
  report.scalar("peak_asymptote", bestInf);
  report.metrics(exec::Pool::global().metricsSnapshot());
  report.metrics(exec::ArtifactCache::global().metricsSnapshot());

  if (report.traceRequested()) trace.writeFile(report.tracePath());
  return report.finish();
}
