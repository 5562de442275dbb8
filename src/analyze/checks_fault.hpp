#pragma once
/// \file checks_fault.hpp
/// FT* rules: fault-plan and recovery-policy validation, plus the `.flt`
/// fault-plan spec format consumed by `prtr-lint fault-spec`, prtr-bench chaos
/// and prtrsim_cli.
///
/// Fault spec (one `<key> <value>` per line, '#' comments):
///     seed <n>                 arrival poisson|fixed   fixed-period <n>
///     link-stall-rate <p>      stall-us <t>
///     word-flip-rate <p>       timeout-rate <p>        abort-rate <p>
///     api-reject-rate <p>
///     recovery true|false      max-retries <n>         repair-rounds <n>
///     backoff-us <t>           backoff-factor <x>
///     verify off|on-fault|always                       ladder true|false
///
/// Compiled into the prtr_fault library (analyze itself stays dependency-
/// free of the subsystems it validates — same split as the other checkers).

#include <istream>
#include <string>

#include "analyze/diagnostic.hpp"
#include "config/recovery.hpp"
#include "fault/fault.hpp"

namespace prtr::analyze {

/// A fault plan plus recovery policy as written, before any validation.
struct FaultSpec {
  std::uint64_t seed = 0x5EEDu;
  std::string arrival = "poisson";  ///< poisson | fixed
  std::uint64_t fixedPeriod = 2;
  double linkStallRate = 0.0;
  double stallUs = 100.0;
  double wordFlipRate = 0.0;
  double transferTimeoutRate = 0.0;
  double icapAbortRate = 0.0;
  double apiRejectRate = 0.0;
  bool recoveryEnabled = true;
  std::uint64_t maxRetries = 3;
  std::uint64_t repairRounds = 4;
  double backoffUs = 50.0;
  double backoffFactor = 2.0;
  std::string verify = "on-fault";  ///< off | on-fault | always
  bool ladder = true;
};

/// Parses a fault spec; throws DomainError (with the line number) on syntax
/// errors. Unknown arrival/verify names parse fine — they lint as FT004 /
/// FT005.
[[nodiscard]] FaultSpec parseFaultSpec(std::istream& in);

/// Runs the string-boundary rules (FT004, FT005) and all typed FT rules
/// over a parsed spec; also flags no-op plans (FT007).
[[nodiscard]] DiagnosticSink lintFaultSpec(const FaultSpec& spec);

/// Typed-boundary FT rules over an assembled plan/policy pair — used by
/// runScenario's strict lint hook. Does not emit FT007 (a rate-0 plan with
/// recovery enabled is the legitimate "healthy baseline" configuration).
void checkFaultOptions(const fault::Plan& plan,
                       const config::RecoveryPolicy& recovery,
                       DiagnosticSink& sink);

/// Converts a (lint-clean) spec into the typed plan and policy. Unknown
/// arrival/verify names fall back to the defaults, mirroring the scenario
/// spec's value_or behaviour.
[[nodiscard]] std::pair<fault::Plan, config::RecoveryPolicy> faultSpecToOptions(
    const FaultSpec& spec);

}  // namespace prtr::analyze
