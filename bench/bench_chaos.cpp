// Chaos benchmark: the dual-PRR Figure-9 scenario under deterministic fault
// injection at a ladder of word-flip rates, with the recovery runtime
// absorbing the damage. This is the robustness gate for the prtr::fault
// subsystem: CI runs it with --json under asan and validates that every
// chaos run recovers (no unrecovered scenarios), that retries stay inside
// the policy budget, and that the pooled sweep is byte-identical to the
// serial one — chaos must not cost determinism.
#include <array>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "case.hpp"
#include "config/recovery.hpp"
#include "exec/pool.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace prtr;

constexpr std::uint64_t kChaosSeed = 24091;
// The fault seed actually used: kChaosSeed unless `--seed` overrides it.
std::uint64_t gChaosSeed = kChaosSeed;
const std::vector<double> kRates = {0.0, 1e-6, 1e-4};

runtime::ScenarioOptions chaosOptions(double rate, bool recovery) {
  runtime::ScenarioOptions options;
  options.layout = xd1::Layout::kDualPrr;
  options.basis = model::ConfigTimeBasis::kMeasured;
  options.forceMiss = true;  // every call reconfigures: worst-case exposure
  options.faults.seed = gChaosSeed;
  options.faults.wordFlipRate = rate;
  options.faults.icapAbortRate = rate > 0.0 ? 0.01 : 0.0;
  options.faults.apiRejectRate = rate > 0.0 ? 0.005 : 0.0;
  options.recovery.enabled = recovery;
  return options;
}

/// One chaos point: the scenario result plus whether it recovered at all.
struct ChaosPoint {
  double rate = 0.0;
  bool recovered = false;
  runtime::ScenarioResult result;
};

ChaosPoint runPoint(double rate, bool recovery) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 24, util::Bytes{1'000'000});
  ChaosPoint point;
  point.rate = rate;
  try {
    point.result =
        runtime::runScenario(registry, workload, chaosOptions(rate, recovery));
    point.recovered = true;
  } catch (const util::FaultError&) {
    point.recovered = false;  // ladder exhausted: the gate fails on this
  }
  return point;
}

/// Sum of every counter whose name ends with `suffix` (both scenario sides
/// carry the recovery accounting under their frtr. / prtr. prefixes).
std::uint64_t counterSum(const runtime::ScenarioResult& result,
                         const std::string& suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : result.metrics.counters) {
    if (name.ends_with(suffix)) total += value;
  }
  return total;
}

/// Folds every `recovery.ladder_depth` histogram in the snapshot (one per
/// scenario side) into one distribution of rung indices.
obs::HistogramSummary ladderDepth(const runtime::ScenarioResult& result) {
  obs::HistogramSummary depth;
  for (const auto& [name, histogram] : result.metrics.histograms) {
    if (name.ends_with("recovery.ladder_depth")) depth.fold(histogram);
  }
  return depth;
}

/// Renders every rate through the exec pool at the given width; pooled
/// chaos must reproduce the serial bytes exactly.
std::string sweepRender(std::size_t threads) {
  exec::ForOptions options;
  options.threads = threads;
  const auto rendered = exec::parallelMap(
      kRates,
      [](double rate) {
        const ChaosPoint point = runPoint(rate, /*recovery=*/true);
        return point.result.toString() + point.result.metrics.toString();
      },
      options);
  std::string joined;
  for (const std::string& r : rendered) joined += r;
  return joined;
}

}  // namespace

int prtr::bench::cases::chaos(obs::BenchReport& report) {
  const std::size_t n = report.options().threads();
  exec::Pool::setGlobalThreads(n);
  gChaosSeed = report.options().seedOr(kChaosSeed);

  std::cout << "=== Chaos: dual-PRR Figure-9 scenario under fault injection"
               " (seed "
            << gChaosSeed << ") ===\n\n";

  util::Table table{{"flip rate", "recovered", "injected", "requests",
                     "retries", "repairs", "escalations", "full-device",
                     "speedup"}};
  std::uint64_t unrecovered = 0;
  std::uint64_t retriesTotal = 0;
  std::uint64_t requestsTotal = 0;
  std::uint64_t injectedTotal = 0;
  std::uint64_t repairsTotal = 0;
  std::uint64_t escalationsTotal = 0;
  std::uint64_t fullDeviceTotal = 0;
  const std::uint32_t maxRetries = runtime::RecoveryPolicy{}.maxRetries;
  std::array<std::uint64_t, config::kRecoveryRungCount> landedTotals{};
  obs::HistogramSummary depthTotal;
  for (const double rate : kRates) {
    const ChaosPoint point = runPoint(rate, /*recovery=*/true);
    if (!point.recovered) ++unrecovered;
    const std::uint64_t injected =
        counterSum(point.result, "fault.injected.total");
    const std::uint64_t requests = counterSum(point.result, "recovery.requests");
    const std::uint64_t retries = counterSum(point.result, "recovery.retries");
    const std::uint64_t repairs =
        counterSum(point.result, "recovery.frame_repairs");
    const std::uint64_t escalations =
        counterSum(point.result, "recovery.escalations");
    const std::uint64_t fullDevice =
        counterSum(point.result, "recovery.full_device_fallbacks");
    injectedTotal += injected;
    requestsTotal += requests;
    retriesTotal += retries;
    repairsTotal += repairs;
    escalationsTotal += escalations;
    fullDeviceTotal += fullDevice;
    for (std::size_t r = 0; r < config::kRecoveryRungCount; ++r) {
      landedTotals[r] += counterSum(
          point.result,
          std::string("recovery.landed.") +
              config::metricSuffix(static_cast<config::RecoveryRung>(r)));
    }
    depthTotal.fold(ladderDepth(point.result));
    table.row()
        .cell(util::formatDouble(rate, 6))
        .cell(point.recovered ? "yes" : "NO")
        .cell(injected)
        .cell(requests)
        .cell(retries)
        .cell(repairs)
        .cell(escalations)
        .cell(fullDevice)
        .cell(util::formatDouble(point.recovered ? point.result.speedup : 0.0,
                                 3));
  }
  table.print(std::cout);
  report.table("chaos_ladder", table);

  // --- Recovery-ladder depth distribution: where every recovering load
  // actually landed, rung by rung, pooled across the rate ladder. The
  // per-rung counters and the ladder_depth histogram are two views of the
  // same events, so their totals must agree — CI gates on that, and on the
  // depth quantiles staying shallow (healthy chaos recovers at the first
  // rungs; p95 at full-device would mean the ladder is not absorbing).
  std::uint64_t landedSum = 0;
  util::Table depthTable{{"rung", "landed", "share"}};
  for (std::size_t r = 0; r < config::kRecoveryRungCount; ++r) {
    landedSum += landedTotals[r];
  }
  for (std::size_t r = 0; r < config::kRecoveryRungCount; ++r) {
    const auto rung = static_cast<config::RecoveryRung>(r);
    // No load lands on the difference rung; it keeps only its index.
    if (rung == config::RecoveryRung::kDifferencePartial) continue;
    const double share =
        landedSum == 0 ? 0.0
                       : static_cast<double>(landedTotals[r]) /
                             static_cast<double>(landedSum);
    depthTable.row()
        .cell(config::metricSuffix(rung))
        .cell(landedTotals[r])
        .cell(util::formatDouble(share, 4));
    report.scalar(std::string("ladder_landed_") + config::metricSuffix(rung),
                  landedTotals[r]);
  }
  std::cout << "\nrecovery-ladder depth distribution (all rates pooled):\n";
  depthTable.print(std::cout);
  report.table("ladder_depth", depthTable);
  const bool ladderConsistent = depthTotal.count == landedSum;
  std::cout << "ladder histogram agrees with per-rung counters: "
            << (ladderConsistent ? "yes" : "NO") << '\n';
  report.scalar("ladder_depth_count", depthTotal.count);
  report.scalar("ladder_depth_p50", depthTotal.quantile(0.50));
  report.scalar("ladder_depth_p95", depthTotal.quantile(0.95));
  report.scalar("ladder_depth_max",
                depthTotal.count == 0
                    ? std::uint64_t{0}
                    : static_cast<std::uint64_t>(depthTotal.max));
  report.scalar("ladder_depth_consistent",
                std::uint64_t{ladderConsistent ? 1u : 0u});

  // --- Zero-overhead-when-healthy: rate 0 with recovery enabled must match
  // the recovery-disabled baseline on every report byte (the recovery.*
  // counter lines are only present when the policy is on, so compare the
  // shared report body).
  const ChaosPoint baseline = runPoint(0.0, /*recovery=*/false);
  const ChaosPoint healthy = runPoint(0.0, /*recovery=*/true);
  const bool healthyIdentical =
      baseline.recovered && healthy.recovered &&
      baseline.result.toString() == healthy.result.toString();
  std::cout << "\nhealthy run (rate 0, recovery on) report-identical to"
               " baseline: "
            << (healthyIdentical ? "yes" : "NO") << '\n';

  // --- Determinism under the pool: the rate ladder rendered serially and
  // at N threads must agree byte-for-byte.
  const std::string serial = sweepRender(1);
  const bool identical = sweepRender(n) == serial;
  std::cout << "chaos sweep byte-identical at 1 vs " << n
            << " threads: " << (identical ? "yes" : "NO") << '\n';

  // Retry budget: the policy grants maxRetries per rung per request; a
  // healthy recovery runtime stays well under one retry per request even at
  // the hottest rate. CI gates on this scalar.
  const double retriesPerRequest =
      requestsTotal == 0
          ? 0.0
          : static_cast<double>(retriesTotal) / static_cast<double>(requestsTotal);
  std::cout << "retries per recovering request: "
            << util::formatDouble(retriesPerRequest, 4) << " (budget "
            << maxRetries << " per rung)\n";

  report.scalar("unrecovered_scenarios", unrecovered);
  report.scalar("faults_injected_total", injectedTotal);
  report.scalar("recovery_requests_total", requestsTotal);
  report.scalar("recovery_retries_total", retriesTotal);
  report.scalar("retries_per_request", retriesPerRequest);
  report.scalar("retry_budget_per_rung", std::uint64_t{maxRetries});
  report.scalar("frame_repairs_total", repairsTotal);
  report.scalar("escalations_total", escalationsTotal);
  report.scalar("full_device_fallbacks_total", fullDeviceTotal);
  report.scalar("healthy_identical", std::uint64_t{healthyIdentical ? 1u : 0u});
  report.scalar("outputs_identical", std::uint64_t{identical ? 1u : 0u});
  report.scalar("fault_seed", gChaosSeed);

  // --trace re-runs the hottest recovering point (rate 1e-4) with the
  // timeline hook attached: the capture shows the recovery lane interleaved
  // with ICAP traffic, and prtr-verify checks it against the TL0xx
  // invariants (including the recovery pairing rule TL007).
  traceScenario(report, chaosOptions(1e-4, /*recovery=*/true), 24);
  const bool ok =
      identical && healthyIdentical && unrecovered == 0 && ladderConsistent;
  return ok ? 0 : 1;
}
