#pragma once
/// \file schedule.hpp
/// Bounded schedule explorer: replays a scaled-down Figure-9 sweep under
/// seeded pool-interleaving perturbations (verify::SeededOracle injected
/// via exec::Pool::setScheduleOracle) across a range of pool widths, and
/// proves the pool's determinism contract — results stored by index are
/// byte-identical regardless of which worker ran which point, in which
/// order, stolen from whom. A mismatch is a DT001 error pinpointing the
/// width and seed that broke it; a run that exercised fewer distinct
/// schedules than requested is a DT003 warning (the proof was weaker than
/// asked for, e.g. a pool too narrow for the seeds to matter).
///
/// Declared here with the verify headers; the implementation compiles
/// into prtr_analysis (it drives analysis::makeFig9), the same split as
/// the analyze checker translation units.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"

namespace prtr::verify {

/// Exploration shape. The defaults are sized for a CI gate: a few dozen
/// runs of a small sweep, a few seconds total.
struct ExploreOptions {
  std::vector<std::size_t> widths{1, 2, 3, 4};  ///< global pool widths
  std::size_t seedsPerWidth = 8;                ///< oracle seeds per width
  std::uint64_t baseSeed = 0x5EED;
  /// Minimum distinct (width, signature) pairs the exploration must
  /// exercise; 0 disables the DT003 check.
  std::size_t minDistinctSchedules = 0;
  /// Scaled-down Fig-9 sweep driven at every run.
  std::size_t points = 4;
  std::uint64_t nCalls = 40;
  /// Replaces the Fig-9 sweep with an arbitrary byte-producing workload.
  /// Used by the negative tests to prove the explorer actually catches a
  /// schedule-dependent result (DT001); production callers leave it unset.
  std::function<std::string()> sweep;
};

/// One perturbed replay.
struct ScheduleRun {
  std::size_t width = 0;
  std::uint64_t seed = 0;
  std::uint64_t signature = 0;   ///< oracle decision-stream hash
  std::uint64_t decisions = 0;   ///< scheduling decisions perturbed
  bool identical = false;        ///< bytes matched the reference run
};

struct ExploreResult {
  std::vector<ScheduleRun> runs;
  std::size_t distinctSchedules = 0;
  std::size_t mismatches = 0;   ///< schedule-perturbation divergences
  std::string referenceDigest;  ///< CRC-32 (hex) of the reference bytes

  [[nodiscard]] bool deterministic() const noexcept {
    return mismatches == 0;
  }
};

/// Runs the exploration and reports DT001/DT003 findings. Rebuilds the
/// global pool per width (exec::Pool::setGlobalThreads) and restores the
/// default width afterwards, so call it from a quiescent process (tests,
/// the prtr-verify CLI), not mid-sweep.
[[nodiscard]] ExploreResult exploreSchedules(const ExploreOptions& options,
                                             analyze::DiagnosticSink& sink);

}  // namespace prtr::verify
