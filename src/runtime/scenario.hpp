#pragma once
/// \file scenario.hpp
/// The library's top-level entry point: run one workload under FRTR and/or
/// PRTR on freshly instantiated simulated XD1 nodes, measure the speedup,
/// and validate it against the analytical model (equations 6/7).
/// This is what the examples and the figure-reproduction benches drive.
///
/// One options-driven entry point: `ScenarioOptions.sides` selects whether
/// the FRTR baseline runs at all, `assumedHitRatio` feeds model-only
/// derivations (deriveModelParams), and `hooks` attaches observability
/// (timelines, metrics sink, trace exporter) uniformly.

#include <optional>
#include <string>

#include "config/recovery.hpp"
#include "fault/fault.hpp"
#include "model/model.hpp"
#include "obs/hooks.hpp"
#include "runtime/executor.hpp"

namespace prtr::exec {
class ArtifactCache;
}  // namespace prtr::exec

namespace prtr::runtime {

/// The recovery knobs live with the configuration machinery that executes
/// them; the runtime re-exports the type as its own vocabulary.
using RecoveryPolicy = config::RecoveryPolicy;

/// Which executors a scenario run instantiates.
enum class ScenarioSides : std::uint8_t {
  kBoth,      ///< FRTR baseline + PRTR (measured speedup is meaningful)
  kPrtrOnly,  ///< PRTR only; the FRTR report stays empty and speedup is 0
};

[[nodiscard]] const char* toString(ScenarioSides sides) noexcept;

/// Everything a scenario needs besides the workload itself.
struct ScenarioOptions {
  xd1::Layout layout = xd1::Layout::kDualPrr;
  ScenarioSides sides = ScenarioSides::kBoth;
  model::ConfigTimeBasis basis = model::ConfigTimeBasis::kMeasured;
  util::Time tControl = util::Time::microseconds(10);
  /// Paper experiment mode (H = 0): reconfigure on every call.
  bool forceMiss = true;
  PrepareSource prepare = PrepareSource::kQueue;
  CachePolicy cachePolicy = CachePolicy::kLru;
  PrefetcherKind prefetcherKind = PrefetcherKind::kNone;
  util::Time decisionLatency = util::Time::zero();
  /// Multi-frame-write compression in the ICAP controller (extension;
  /// affects the measured basis only).
  bool mfwCompression = false;
  std::size_t associationWindow = 8;
  /// Hit ratio for model derivations that do not execute the scenario
  /// (deriveModelParams). Unset = use forceMiss semantics (H = 0).
  std::optional<double> assumedHitRatio;
  /// Fault-injection plan for both sides' nodes. The default (all rates
  /// zero) installs no hooks; outputs are bit-identical to a build without
  /// the fault layer.
  fault::Plan faults{};
  /// Recovery policy (retry/backoff, readback-verify, degradation ladder)
  /// handed to each node's config::Manager and honoured by the executors'
  /// measured-basis loads. Disabled by default.
  RecoveryPolicy recovery{};
  /// Observability: timelines, metrics sink, trace exporter.
  obs::Hooks hooks{};
  /// Inline timeline verification: after the run, both sides' timelines
  /// are checked against the verify::checkTimeline invariants (TL0xx —
  /// causality, PRR single-residency, ICAP exclusion, link conservation,
  /// recovery pairing). An error-severity finding aborts with DomainError,
  /// same contract as the strict pre-run lint. Timelines are recorded
  /// locally when no hook provides one, so enabling this needs no other
  /// observability setup.
  bool verify = false;
  /// The store floorplans and bitstreams resolve through (see
  /// exec::ArtifactCache). Null = exec::ArtifactCache::global(), so runs in
  /// one process share every artifact. Simulation results are identical
  /// with any store — the artifacts are immutable and keyed exactly.
  exec::ArtifactCache* artifacts = nullptr;
};

/// Measurements plus the model's prediction for the same parameters.
struct ScenarioResult {
  ExecutionReport frtr;       ///< empty when sides == kPrtrOnly
  ExecutionReport prtr;
  double speedup = 0.0;       ///< measured S = T_FRTR_total / T_PRTR_total
  model::Params modelParams;  ///< derived from the platform + measured H
  double modelSpeedup = 0.0;  ///< eq. (6) at those parameters
  double modelError = 0.0;    ///< |measured - model| / model
  /// Per-side metrics merged under "frtr." / "prtr." prefixes plus
  /// scenario-level gauges (scenario.speedup, scenario.model_speedup).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::string toString() const;
};

/// Runs `workload` per `options.sides` and validates against the model.
[[nodiscard]] ScenarioResult runScenario(const tasks::FunctionRegistry& registry,
                                         const tasks::Workload& workload,
                                         const ScenarioOptions& options);

/// Derives the model parameters a scenario implies (without running it),
/// at `options.assumedHitRatio` (H = 0 when unset).
[[nodiscard]] model::Params deriveModelParams(
    const tasks::FunctionRegistry& registry, const tasks::Workload& workload,
    const ScenarioOptions& options);

}  // namespace prtr::runtime
