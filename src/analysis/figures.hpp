#pragma once
/// \file figures.hpp
/// Emitters that regenerate every table and figure of the paper's
/// evaluation (see DESIGN.md experiment index). Each returns structured
/// data (util::Table / util::Series) that the bench binaries print and can
/// dump as CSV.

#include <string>
#include <vector>

#include "model/calibration.hpp"
#include "runtime/scenario.hpp"
#include "util/plot.hpp"
#include "util/table.hpp"

namespace prtr::exec {
class ArtifactCache;
}  // namespace prtr::exec

namespace prtr::analysis {

/// Table 1: hardware functions and their resource requirements on the
/// XC2VP50 (percentages against the usable device fabric).
[[nodiscard]] util::Table makeTable1();

/// Table 2: bitstream sizes and configuration times (estimated vs measured,
/// absolute and normalized) for the full / single-PRR / dual-PRR layouts,
/// with the paper's values side by side.
[[nodiscard]] util::Table makeTable2();

/// One sweep point of Figure 9.
struct Fig9Point {
  double xTask = 0.0;        ///< normalized task time requirement
  util::Bytes dataBytes{};   ///< payload that realizes it
  double simSpeedup = 0.0;   ///< measured on the simulator (finite calls)
  double modelSpeedup = 0.0; ///< eq. (6) at the same finite call count
  double modelAsymptote = 0.0;  ///< eq. (7)
};

/// Figure 9 reproduction: speedup vs task time requirement on the dual-PRR
/// layout, H = 0 (always reconfigure), T_control = 10 us — simulated and
/// analytic, at the chosen configuration-time basis (9a = estimated,
/// 9b = measured).
struct Fig9Options {
  model::ConfigTimeBasis basis = model::ConfigTimeBasis::kMeasured;
  std::size_t points = 21;
  double xTaskLo = 1e-3;
  double xTaskHi = 50.0;
  std::uint64_t nCalls = 400;
  std::size_t threads = 0;  ///< participants on the exec pool (0 = pool width)
  /// Store the sweep points share floorplans/bitstreams through (every
  /// Fig-9 point uses the same dual-PRR layout, so the repeated-layout hit
  /// rate is high). Null = exec::ArtifactCache::global().
  exec::ArtifactCache* artifacts = nullptr;
  /// Trace collector: each sweep point's PRTR timeline is added as one
  /// process ("fig9[i] x=...") with sampled counter tracks (link occupancy,
  /// ICAP busy, PRR residency) attached. Null = no trace capture.
  obs::ChromeTrace* trace = nullptr;
  /// Receives the sweep's metrics: every point's scenario counters and
  /// histograms (its gauges describe that point alone and are dropped),
  /// folded in point order after the barrier, then fig9.points_computed —
  /// byte-identical at any --threads width. Null = off.
  obs::MetricsSnapshot* metrics = nullptr;
};
/// Host timings go to obs::hostMetrics(): the whole sweep under
/// host.fig9.sweep_ns, every point under host.fig9.point_ns.
[[nodiscard]] std::vector<Fig9Point> makeFig9(const Fig9Options& options);

/// Renders Figure-9 points as a table and an ASCII plot.
[[nodiscard]] util::Table fig9Table(const std::vector<Fig9Point>& points);
[[nodiscard]] std::string fig9Plot(const std::vector<Fig9Point>& points,
                                   const std::string& title);

/// Figure 5 reproduction: asymptotic speedup (eq. 7, ideal overheads) vs
/// X_task for a set of hit ratios at one X_PRTR. One hit-ratio series per
/// exec-pool participant (`threads` as in ForOptions; series order is
/// deterministic regardless).
[[nodiscard]] std::vector<util::Series> makeFig5Series(
    double xPrtr, const std::vector<double>& hitRatios, std::size_t points = 121,
    double xTaskLo = 1e-3, double xTaskHi = 100.0, std::size_t threads = 0);

/// Logarithmically spaced grid in [lo, hi].
[[nodiscard]] std::vector<double> logGrid(double lo, double hi,
                                          std::size_t points);

}  // namespace prtr::analysis
