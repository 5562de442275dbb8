#pragma once
/// \file report.hpp
/// Execution reports produced by the executors: total time, the
/// per-category breakdown of Figure 2 (configuration, transfer of control,
/// I/O, computation, pre-fetch decision), and cache statistics. These are
/// the observables the model-vs-simulation validator consumes.

#include <cstdint>
#include <string>

#include "obs/metrics.hpp"
#include "util/units.hpp"

namespace prtr::runtime {

/// How often a run left the configuration path's uncontended fast path:
/// link transfers that queued behind other traffic
/// (sim::SimplexLink::contendedTransfers) and ICAP loads a fault hook
/// aborted (config::IcapController::abortedLoads). Deterministic, but kept
/// out of `metrics`, so digests, baselines and --json documents never see
/// it; tests/config_icap_oracle_test.cpp pins it per path.
struct LoadCensus {
  std::uint64_t contendedIn = 0;   ///< HT-in (host -> FPGA) transfers
  std::uint64_t contendedOut = 0;  ///< HT-out (FPGA -> host) transfers
  std::uint64_t abortedLoads = 0;  ///< ICAP loads cut short by a fault hook

  friend bool operator==(const LoadCensus&, const LoadCensus&) = default;
};

/// One hardware call's Figure-2 phases after configuration, as runCall
/// measured them on the critical path.
struct CallRecord {
  util::Time control;
  util::Time input;
  util::Time compute;
  util::Time output;
};

/// Result of executing one workload on one executor.
struct ExecutionReport {
  /// "FRTR", "PRTR", "PRTR(dynamic)" or "HW/SW(<policy>)".
  std::string executor;
  std::uint64_t calls = 0;
  std::uint64_t configurations = 0;  ///< n_config (partial or full reloads)
  std::uint64_t prefetchIssued = 0;  ///< speculative configurations started
  std::uint64_t prefetchWrong = 0;   ///< speculative loads never used

  util::Time total;         ///< end-to-end simulated time
  util::Time initialConfig; ///< the leading full configuration (PRTR)
  util::Time configStall;   ///< time calls spent waiting on configuration
  util::Time decisionTime;  ///< accumulated T_decision
  util::Time controlTime;   ///< accumulated T_control
  util::Time inputTime;     ///< host->FPGA payload time on the critical path
  util::Time computeTime;   ///< fabric execution time
  util::Time outputTime;    ///< FPGA->host payload time

  /// Subsystem counters scraped at the end of the run: sim kernel, ICAP /
  /// vendor-API, cache, and the executor's own accounting (see obs/).
  obs::MetricsSnapshot metrics;
  LoadCensus census;  ///< scraped with `metrics`, never merged into it

  /// Counts one call and folds its phases into the totals: the only place
  /// `calls` and the control/input/compute/output times are summed.
  void add(const CallRecord& call) noexcept {
    ++calls;
    controlTime += call.control;
    inputTime += call.input;
    computeTime += call.compute;
    outputTime += call.output;
  }

  /// Measured hit ratio: calls that found their module resident.
  [[nodiscard]] double hitRatio() const noexcept {
    if (calls == 0) return 0.0;
    const std::uint64_t missed =
        configurations < calls ? configurations : calls;
    return static_cast<double>(calls - missed) / static_cast<double>(calls);
  }

  /// Fraction of total time spent on (re)configuration stalls — the
  /// "25% to 98.5%" overhead figure of the paper's introduction.
  [[nodiscard]] double configOverheadFraction() const noexcept {
    return total > util::Time::zero()
               ? (configStall + initialConfig) / total
               : 0.0;
  }

  [[nodiscard]] std::string toString() const;
};

/// Speedup of `prtr` relative to `frtr` (the paper's S).
[[nodiscard]] double measuredSpeedup(const ExecutionReport& frtr,
                                     const ExecutionReport& prtr);

}  // namespace prtr::runtime
