#pragma once
/// \file checks_fleet.hpp
/// FL* rules: fleet-configuration validation, plus the `.fleet` spec
/// format consumed by `prtr-lint fleet-spec` and prtr-bench fleet.
///
/// Fleet spec (one `<key> <value>` per line, '#' comments):
///     cells <n>             blades <n>             requests <n>
///     seed <n>              arrival poisson|fixed-rate|trace
///     offered-load <x>      users <n>              task-affinity <x>
///     payload-kib <n>       payload-spread <x>
///     routing least-loaded|p2c|round-robin
///     max-attempts <n>      retry-budget <x>       retry-burst <x>
///     retry-backoff-us <t>  retry-backoff-factor <x>
///     breaker true|false    breaker-failures <n>   breaker-open-us <t>
///     breaker-probes <n>    breaker-probe-successes <n>
///     slo-factor <x>        max-queue-depth <n>
///     hedge true|false      hedge-quantile <x>     hedge-min-samples <n>
///     hedge-budget <x>
///     degraded-fraction <x> escalate-after <n>     recover-after <n>
///     rate-limit true|false rate-limit-rps <x>     rate-limit-burst <x>
///     trace true|false      trace-sample-rate <x>  trace-slow-quantile <x>
///     trace-slow-min-samples <n>                   trace-max-per-cell <n>
///     slo true|false        slo-objective <x>      slo-latency-us <t>
///     slo-window-us <t>     slo-fast-windows <n>   slo-slow-windows <n>
///     slo-fast-burn <x>     slo-slow-burn <x>
///
/// Fault plans stay out of the spec deliberately: prtr-bench fleet composes a
/// `.fleet` spec with `.flt` fault specs (checks_fault.hpp), one for the
/// healthy blades and one for the degraded subset, mirroring prtr-bench chaos.
///
/// Compiled into the prtr_fleet library (analyze itself stays dependency-
/// free of the subsystems it validates — same split as the other checkers).

#include <istream>
#include <string>

#include "analyze/diagnostic.hpp"
#include "fleet/fleet.hpp"

namespace prtr::analyze {

/// A fleet configuration as written, before any validation.
struct FleetSpec {
  std::uint64_t cells = 4;
  std::uint64_t blades = 6;
  std::uint64_t requests = 100'000;
  std::uint64_t seed = 0xF1EE7u;
  std::string arrival = "poisson";  ///< poisson | fixed-rate | trace
  double offeredLoad = 0.7;
  std::uint64_t users = 64;
  double taskAffinity = 0.75;
  std::uint64_t payloadKib = 1024;
  double payloadSpread = 0.25;
  std::string routing = "p2c";  ///< least-loaded | p2c | round-robin
  std::uint64_t maxAttempts = 3;
  double retryBudget = 0.2;
  double retryBurst = 10.0;
  double retryBackoffUs = 0.2;
  double retryBackoffFactor = 2.0;
  bool breaker = true;
  std::uint64_t breakerFailures = 5;
  double breakerOpenUs = 5000.0;
  std::uint64_t breakerProbes = 3;
  std::uint64_t breakerProbeSuccesses = 2;
  double sloFactor = 16.0;
  std::uint64_t maxQueueDepth = 64;
  bool hedge = false;
  double hedgeQuantile = 0.95;
  std::uint64_t hedgeMinSamples = 100;
  double hedgeBudget = 0.05;
  double degradedFraction = 0.0;
  std::uint64_t escalateAfter = 3;
  std::uint64_t recoverAfter = 16;
  bool rateLimit = false;
  double rateLimitRps = 50.0;
  double rateLimitBurst = 10.0;
  bool trace = false;
  double traceSampleRate = 0.01;
  double traceSlowQuantile = 0.99;
  std::uint64_t traceSlowMinSamples = 1000;
  std::uint64_t traceMaxPerCell = 10'000;
  bool slo = false;
  double sloObjective = 0.999;
  double sloLatencyUs = 0.0;   ///< 0 = derive from the admission deadline
  double sloWindowUs = 50'000.0;
  std::uint64_t sloFastWindows = 3;
  std::uint64_t sloSlowWindows = 12;
  double sloFastBurn = 14.0;
  double sloSlowBurn = 6.0;
};

/// Parses a fleet spec; throws DomainError (with the line number) on
/// syntax errors. Unknown arrival/routing names parse fine — they lint as
/// FL005 / FL004.
[[nodiscard]] FleetSpec parseFleetSpec(std::istream& in);

/// Runs the string-boundary rules (FL004, FL005) and all typed FL rules
/// over a parsed spec.
[[nodiscard]] DiagnosticSink lintFleetSpec(const FleetSpec& spec);

/// Typed-boundary FL rules over assembled options — what runFleet's
/// callers use before committing to a million-request run. Checks the
/// fault plans too (degraded-plan interplay: FL014, FL015).
void checkFleetOptions(const fleet::FleetOptions& options,
                       DiagnosticSink& sink);

/// FL017 over a calibrated blade profile: a task whose every cost
/// component collapsed to zero means the calibration scenarios never
/// exercised it (zero-byte payloads, a single degenerate scenario) — the
/// fleet would simulate free requests instead of failing loudly.
void checkBladeProfile(const fleet::BladeProfile& profile,
                       DiagnosticSink& sink);

/// Converts a (lint-clean) spec into typed options. Unknown routing and
/// arrival names fall back to the defaults, mirroring the scenario spec's
/// value_or behaviour. Fault plans and the trace stay default — callers
/// attach those programmatically.
[[nodiscard]] fleet::FleetOptions fleetSpecToOptions(const FleetSpec& spec);

}  // namespace prtr::analyze
