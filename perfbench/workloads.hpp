#pragma once
/// \file workloads.hpp
/// The benchmark's workloads, their output checks, and their digests.
///
///   fig9_sweep         Fig. 9(b) points (dual PRR, measured basis, H = 0)
///                      at X_task drawn log-uniformly from the seed; one
///                      runtime::runScenario per point.
///   fleet_steady       examples/fleet/steady.fleet, fleet::runFleet batches.
///   fleet_chaos_surge  examples/fleet/surge.fleet plus a chaos plan on 20%
///                      of blades, fleet::runFleet batches.
///
/// Every workload runs on one host thread.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/figures.hpp"
#include "fleet/fleet.hpp"
#include "obs/metrics.hpp"

namespace perfbench {

inline constexpr std::string_view kWorkloads[] = {"fig9_sweep", "fleet_steady",
                                                  "fleet_chaos_surge"};

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;      ///< traced run: per-layer metrics
  bool setupOnly = false;  ///< stop after set-up (set-up time samples)
  std::string specDir;     ///< directory holding steady.fleet / surge.fleet
  std::string digestFile;  ///< committed digests; empty = none
  std::string traceOut;    ///< spans file of the traced run; empty = none
  double startWall = 0.0;  ///< wallSeconds() at process start
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setupSeconds = 0.0;
  /// What the result line carries: the end-to-end metrics (untraced run)
  /// or the per-layer metrics (traced run), set-up time excepted.
  std::vector<Metric> gated;
  /// Every number the run measured, printed by name and unit.
  std::vector<Metric> report;
  std::vector<std::string> notes;   ///< context lines (digests, host)
  std::vector<std::string> errors;  ///< failed checks
};

[[nodiscard]] bool isWorkload(std::string_view name);

/// Runs one workload per `options`; the workload must be one of
/// kWorkloads. Set-up failures throw; failed op checks are counted in the
/// result.
[[nodiscard]] RunResult runWorkload(const RunOptions& options);

/// Digest of a workload's check set for `seed`: the first Fig-9 points or
/// the first fleet batch, rendered as text (see renderFig9/renderFleet).
/// The workload must be one of kWorkloads.
[[nodiscard]] std::string checkDigest(std::string_view workload,
                                      std::uint64_t seed,
                                      const std::string& specDir);

/// The committed digest for (workload, seed) in `digestFile`, whose lines
/// read "<workload> <seed> <digest>"; nullopt when not committed.
[[nodiscard]] std::optional<std::string> committedDigest(
    const std::string& digestFile, std::string_view workload,
    std::uint64_t seed);

// ---- Output checks (exposed for the benchmark's own tests) ----

/// Fig-9 invariant: 1 <= S_sim <= S_inf (eq. 7). nullopt = pass.
[[nodiscard]] std::optional<std::string> checkFig9Point(
    const prtr::analysis::Fig9Point& point);

enum class FleetKind : std::uint8_t { kSteady, kChaosSurge };

/// Fleet invariants: completed + failed + shed = offered; steady fails
/// nothing; chaos_surge keeps its whole trace tail and stays within the
/// retry budget (+0.01). nullopt = pass.
[[nodiscard]] std::optional<std::string> checkFleetReport(
    const prtr::fleet::FleetReport& report, FleetKind kind,
    const prtr::fleet::FleetOptions& options);

/// Rendered check-set outputs the digests are taken over.
[[nodiscard]] std::string renderFig9(
    const std::vector<prtr::analysis::Fig9Point>& points,
    const prtr::obs::MetricsSnapshot& merged);
[[nodiscard]] std::string renderFleet(const prtr::fleet::FleetReport& report);

}  // namespace perfbench
