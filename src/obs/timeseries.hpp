#pragma once
/// \file timeseries.hpp
/// Windowed-over-sim-time series for the fleet: per-window latency
/// histograms plus throughput / shed / retry / breaker counters, and the
/// multi-window SLO burn-rate evaluation over them.
///
/// Windows are indexed by simulated time (`atPs / windowPs`) and grown
/// densely, so folding the per-cell series in cell order is element-wise
/// and deterministic at any --threads — the same ordered-reduction
/// contract the metrics snapshots follow.
///
/// The SLO gate is the classic multi-window burn-rate alert: with
/// objective `o`, a window's burn rate is `badFraction / (1 - o)` (burn 1
/// means exactly consuming error budget at the rate that exhausts it at
/// the objective horizon). A breach requires the fast window (short,
/// catches cliffs) and the slow window (long, suppresses blips) to exceed
/// their thresholds simultaneously.

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"

namespace prtr::obs {

/// SLO objective + burn-rate windows, parsed from a `.fleet` spec.
struct SloSpec {
  bool enabled = false;
  /// Fraction of completed-or-shed requests that must be good (completed
  /// within the latency target), e.g. 0.999.
  double objective = 0.999;
  /// Latency target; 0 derives the fleet's admission deadline
  /// (sloFactor x mean service time).
  std::int64_t latencyTargetPs = 0;
  /// Width of one series window in simulated picoseconds (default 50 ms).
  std::int64_t windowPs = 50'000'000'000;
  /// Burn-rate windows, in units of `windowPs`.
  std::uint32_t fastWindows = 3;
  std::uint32_t slowWindows = 12;
  /// Burn-rate thresholds (the canonical page-worthy pair).
  double fastBurn = 14.0;
  double slowBurn = 6.0;
};

/// Windowed counters + latency histogram over simulated time.
class TimeSeries {
 public:
  struct Window {
    std::uint64_t good = 0;  ///< completed within the latency target
    std::uint64_t bad = 0;   ///< completed late, failed, or shed
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t retries = 0;
    std::uint64_t breakerOpens = 0;
    HistogramSummary latency;
  };

  explicit TimeSeries(std::int64_t windowPs = 50'000'000'000) noexcept
      : windowPs_(windowPs > 0 ? windowPs : 1) {}

  [[nodiscard]] std::int64_t windowPs() const noexcept { return windowPs_; }
  [[nodiscard]] const std::vector<Window>& windows() const noexcept {
    return windows_;
  }
  [[nodiscard]] bool empty() const noexcept { return windows_.empty(); }

  /// The window containing `atPs`, growing the series densely.
  [[nodiscard]] Window& at(std::int64_t atPs);

  /// Element-wise accumulation of another series (same window width).
  void fold(const TimeSeries& other);

  [[nodiscard]] std::uint64_t totalGood() const noexcept;
  [[nodiscard]] std::uint64_t totalBad() const noexcept;

  /// Renders the series as Chrome-trace counter tracks ("<prefix>.x"):
  /// throughput, shed, failed, retries, breaker.opens, and bad_fraction,
  /// one sample per window at the window's start time.
  [[nodiscard]] std::vector<CounterTrack> counterTracks(
      const std::string& prefix) const;

 private:
  std::int64_t windowPs_;
  std::vector<Window> windows_;
};

/// Verdict of evaluateSlo.
struct SloResult {
  std::uint64_t good = 0;
  std::uint64_t bad = 0;
  double goodFraction = 1.0;   ///< 1.0 when no traffic
  double fastBurnMax = 0.0;    ///< max trailing-fast-window burn rate
  double slowBurnMax = 0.0;    ///< max trailing-slow-window burn rate
  std::uint64_t breachWindows = 0;  ///< windows where both thresholds trip
  bool pass = true;            ///< breachWindows == 0
};

/// Multi-window burn-rate evaluation of `series` against `spec`.
[[nodiscard]] SloResult evaluateSlo(const TimeSeries& series,
                                    const SloSpec& spec);

}  // namespace prtr::obs
