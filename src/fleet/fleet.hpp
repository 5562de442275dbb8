#pragma once
/// \file fleet.hpp
/// prtr::fleet — an open-loop simulated serving fleet of XD1 chassis with
/// an Envoy-style resilience front end.
///
/// The paper bounds what one node gains from partial run-time
/// reconfiguration; a deployment question immediately follows: what do
/// those bounds look like for a *service* — N chassis of blades behind a
/// load balancer, each request picking a hardware function whose persona
/// may or may not be resident? This layer answers with a discrete-event
/// fleet simulator whose per-request service times come from the real
/// blade simulator (see calibrate.hpp), fronted by the resilience
/// mechanisms production fleets actually run:
///
///   - routing: least-loaded, power-of-two-choices, or round-robin over
///     the blades of a cell;
///   - admission control: deadline-based load shedding (estimated queue
///     wait vs an SLO derived from the calibrated mean service time) and
///     a hard queue-depth bound;
///   - retries: bounded attempts governed by a fleet-wide retry *budget*
///     (token bucket fed by fresh traffic), so retries can never exceed a
///     configured fraction of admitted load — the classic retry-storm
///     guard;
///   - circuit breakers: a blade whose configuration path keeps faulting
///     degrades down the PR-4 recovery ladder; enough consecutive
///     failures (or landing on a heavy-enough rung) opens its breaker,
///     which half-opens after a cooldown and closes again once probe
///     requests succeed;
///   - hedged requests: after a cell-local p95-derived delay, a copy of a
///     straggling request is dispatched to a second blade; first
///     completion wins, the loser is cancelled at dequeue.
///
/// Decision order per fresh request: admission (shed?) -> routing (which
/// breaker-eligible blade?) -> dispatch. Retries re-route; hedges route
/// away from the original blade.
///
/// Determinism: a cell (one chassis) is an independent simulation with its
/// own pending set, its own arrival/routing RNG, and one RNG per blade
/// (fault::Plan::forNode of the global blade index). Cells run through
/// exec::parallelMap and their per-cell MetricsSnapshots fold in cell
/// order after the barrier, so output is byte-identical at any --threads,
/// same contract as hprc::runChassis and the sweep harness.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "config/recovery.hpp"
#include "fault/fault.hpp"
#include "fleet/calibrate.hpp"
#include "obs/hooks.hpp"
#include "obs/timeseries.hpp"
#include "runtime/scenario.hpp"
#include "tasks/hwfunction.hpp"
#include "trace/policy.hpp"
#include "trace/request.hpp"

namespace prtr::fleet {

/// How fresh requests arrive at each cell (open loop: arrivals never wait
/// for completions).
enum class ArrivalProcess : std::uint8_t {
  kPoisson,    ///< exponential interarrivals at the derived rate
  kFixedRate,  ///< deterministic interarrivals at the derived rate
  kTrace,      ///< replay FleetOptions::trace deltas (cyclically)
};

[[nodiscard]] const char* toString(ArrivalProcess arrival) noexcept;

/// Which blade of a cell a request is routed to.
enum class RoutingPolicy : std::uint8_t {
  kLeastLoaded,       ///< scan all eligible blades, pick the shortest queue
  kPowerOfTwoChoices, ///< sample two eligible blades, pick the shorter queue
  kRoundRobin,        ///< rotate over eligible blades
};

[[nodiscard]] const char* toString(RoutingPolicy routing) noexcept;

/// One replayed arrival of a trace-driven fleet (deltas, not absolutes,
/// so a trace can repeat cyclically).
struct TraceArrival {
  std::int64_t deltaPs = 0;   ///< gap since the previous arrival
  std::int32_t task = -1;     ///< function index; -1 = draw from the mix
  std::uint64_t bytes = 0;    ///< payload; 0 = the configured payload
};

/// Bounded retries under a fleet-wide budget. Tokens accrue at
/// `budgetFraction` per admitted fresh request and every retry consumes
/// one, so retry traffic can never exceed that fraction of fresh traffic
/// (plus a small burst allowance) no matter how hostile the fault plan.
struct RetryPolicy {
  std::uint32_t maxAttempts = 3;  ///< total attempts (1 = never retry)
  double budgetFraction = 0.2;    ///< retry tokens accrued per admission
  double burstTokens = 10.0;      ///< token-bucket cap (burst allowance)
  util::Time backoffBase = util::Time::microseconds(200);
  double backoffFactor = 2.0;     ///< backoff = base * factor^(attempt-1)
};

/// Per-blade circuit breaker. Opens on consecutive failures or when the
/// blade's recovery ladder degrades to `openRung` or beyond; half-opens
/// after `openDuration` of simulated time; `probeSuccesses` successful
/// probes (of at most `halfOpenProbes` in flight) close it again.
struct BreakerPolicy {
  bool enabled = true;
  std::uint32_t consecutiveFailures = 5;
  config::RecoveryRung openRung = config::RecoveryRung::kFullDevice;
  util::Time openDuration = util::Time::milliseconds(5);
  std::uint32_t halfOpenProbes = 3;
  std::uint32_t probeSuccesses = 2;
};

/// Deadline-based load shedding at admission. The deadline is
/// `sloFactor` x the calibrated mean service time; a request whose
/// estimated queue wait already exceeds it is shed rather than queued,
/// and a queue deeper than `maxQueueDepth` sheds unconditionally.
struct AdmissionPolicy {
  double sloFactor = 16.0;
  std::uint32_t maxQueueDepth = 64;
};

/// Per-user token-bucket rate limiting at admission. Each simulated user
/// owns a bucket that refills at `ratePerSecond` tokens per simulated
/// second up to `burst`; a fresh arrival whose bucket is empty is shed
/// before routing (it never consumes queue space or a routing decision).
struct RateLimitPolicy {
  bool enabled = false;
  double ratePerSecond = 0.0;
  double burst = 10.0;
};

/// Hedged requests: once a cell has observed `minSamples` completions, a
/// fresh request still unfinished after the cell-local `quantile` latency
/// gets a second copy on another blade. Hedges draw from their own token
/// budget (accrued like the retry budget) so tail-chasing cannot double
/// the offered load.
struct HedgePolicy {
  bool enabled = false;
  double quantile = 0.95;
  std::uint64_t minSamples = 100;
  double budgetFraction = 0.05;
  double burstTokens = 5.0;
};

/// Everything a fleet run needs besides the function registry itself.
struct FleetOptions {
  std::size_t cells = 4;          ///< chassis count
  std::size_t bladesPerCell = 6;  ///< 1..6 (XD1 chassis bound)
  std::uint64_t requests = 100'000;  ///< fresh requests across the fleet
  std::uint64_t seed = 0xF1EE7u;

  ArrivalProcess arrival = ArrivalProcess::kPoisson;
  /// Target per-blade utilization the arrival rate is derived from: the
  /// mean interarrival per cell is E[S] / (offeredLoad * bladesPerCell)
  /// with E[S] the calibrated mean service time at `payloadBytes`.
  double offeredLoad = 0.7;
  std::vector<TraceArrival> trace;  ///< kTrace replay source

  /// Task mix: each request belongs to one of `users` simulated users;
  /// with probability `taskAffinity` it calls the user's preferred
  /// function (user modulo function count), otherwise a uniform draw.
  std::uint64_t users = 64;
  double taskAffinity = 0.75;
  util::Bytes payloadBytes = util::Bytes::mebi(1);
  /// Payload jitter: actual bytes drawn uniformly within +/- this
  /// fraction of `payloadBytes`.
  double payloadSpread = 0.25;

  RoutingPolicy routing = RoutingPolicy::kPowerOfTwoChoices;
  RetryPolicy retry{};
  BreakerPolicy breaker{};
  AdmissionPolicy admission{};
  RateLimitPolicy rateLimit{};
  HedgePolicy hedge{};

  /// Request-scoped tracing (tail-based sampling; see trace/policy.hpp).
  /// A pure observer: enabling it changes no simulated byte.
  trace::TracePolicy tracing{};
  /// SLO objective + burn-rate windows evaluated over the run's
  /// time-series; slo.enabled also turns the series on.
  obs::SloSpec slo{};

  /// Fault plan for healthy blades (re-seeded per blade via forNode).
  fault::Plan faults{};
  /// Chaos split: this fraction of blades (spread evenly across cells)
  /// runs `degradedFaults` instead of `faults`.
  double degradedFraction = 0.0;
  fault::Plan degradedFaults{};
  /// Consecutive config-path failures before a blade slides one rung down
  /// the recovery ladder; `recoverAfter` consecutive successes climb one
  /// rung back up.
  std::uint32_t escalateAfter = 3;
  std::uint32_t recoverAfter = 16;

  /// Blade semantics for calibration (layout, basis, compression...);
  /// passed through hprc::bladeScenarioOptions exactly like a chassis
  /// blade. Fault/recovery knobs here are ignored — calibration measures
  /// the healthy platform.
  runtime::ScenarioOptions calibration{};

  std::size_t threads = 0;  ///< host threads across cells (0 = auto)
  obs::Hooks hooks{};       ///< trace receives request traces (timelines n/a)
};

/// Aggregate result of a fleet run.
struct FleetReport {
  std::uint64_t offered = 0;    ///< fresh arrivals
  std::uint64_t admitted = 0;   ///< fresh arrivals that were queued
  std::uint64_t shed = 0;       ///< fresh arrivals rejected at admission
  std::uint64_t completed = 0;  ///< requests that finished successfully
  std::uint64_t failed = 0;     ///< requests that exhausted their attempts
  std::uint64_t retries = 0;    ///< retry dispatches (budget-approved)
  std::uint64_t retriesDenied = 0;  ///< retries blocked by the budget
  std::uint64_t hedges = 0;         ///< hedge copies dispatched
  std::uint64_t hedgeWins = 0;      ///< requests completed by the hedge copy
  std::uint64_t breakerOpens = 0;
  std::uint64_t breakerCloses = 0;
  std::uint64_t shedRateLimited = 0;  ///< subset of `shed` (token bucket)

  /// Tracing tallies (all zero when FleetOptions::tracing is disabled).
  std::uint64_t tracesRecorded = 0;     ///< requests reaching terminal state
  std::uint64_t tracesKept = 0;         ///< kept by the tail-based sampler
  std::uint64_t tracesKeptTail = 0;     ///< kept because tail (never capped)
  std::uint64_t tracesKeptSampled = 0;  ///< kept by the hash sampler
  std::uint64_t tracesDroppedCap = 0;   ///< rate-sampled keeps over the cap
  std::uint64_t tailEligible = 0;       ///< requests classified as tail

  /// End-to-end latency of successful requests (arrival -> completion).
  obs::HistogramSummary latency;
  util::Time makespan;  ///< slowest cell's last event
  /// High-water request-slot count over cells: the fleet's request memory,
  /// bounded by the in-flight population rather than the request count. A
  /// deterministic cost counter, kept out of `metrics` and toString().
  std::size_t requestSlots = 0;

  double utilizationMin = 0.0;   ///< per-blade busy / makespan, fleet-wide
  double utilizationMean = 0.0;
  double utilizationMax = 0.0;

  /// fleet.* counters/histograms merged across cells in cell order.
  obs::MetricsSnapshot metrics;

  /// Windowed time-series folded across cells in cell order. Populated
  /// when tracing or the SLO gate is enabled; empty otherwise.
  obs::TimeSeries series{};
  /// Burn-rate verdict; `slo.pass` stays true when the gate is disabled.
  obs::SloResult slo{};
  /// Kept request traces per cell (empty unless tracing is enabled).
  trace::FleetTrace traces{};

  /// Fraction of tail-eligible requests the sampler kept — 1.0 by
  /// construction whenever any request qualified as tail.
  [[nodiscard]] double tailRetention() const noexcept {
    return tailEligible ? static_cast<double>(tracesKeptTail) /
                              static_cast<double>(tailEligible)
                        : 1.0;
  }

  /// Retry dispatches as a fraction of admitted fresh traffic — bounded
  /// by RetryPolicy::budgetFraction (plus the burst allowance) by
  /// construction.
  [[nodiscard]] double retryBudgetConsumption() const noexcept {
    return admitted ? static_cast<double>(retries) /
                          static_cast<double>(admitted)
                    : 0.0;
  }
  [[nodiscard]] double shedRate() const noexcept {
    return offered ? static_cast<double>(shed) / static_cast<double>(offered)
                   : 0.0;
  }
  [[nodiscard]] double failureRate() const noexcept {
    return admitted ? static_cast<double>(failed) /
                          static_cast<double>(admitted)
                    : 0.0;
  }

  [[nodiscard]] std::string toString() const;
};

/// Runs the fleet against an already calibrated blade profile.
[[nodiscard]] FleetReport runFleet(const tasks::FunctionRegistry& registry,
                                   const BladeProfile& profile,
                                   const FleetOptions& options);

/// Calibrates the blade profile from `options.calibration`, then runs.
[[nodiscard]] FleetReport runFleet(const tasks::FunctionRegistry& registry,
                                   const FleetOptions& options);

}  // namespace prtr::fleet
