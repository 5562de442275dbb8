// Fleet benchmark: the prtr::fleet serving simulation at one million
// requests — healthy, under chaos (20% of blades running a hostile fault
// plan), and under surge (the rate limiter, request tracing, and the SLO
// burn-rate gate engaged). This is the robustness gate for the fleet
// subsystem: CI runs it at 1 and N threads and validates that the merged
// snapshots are byte-identical for all three points, that the retry
// budget holds under chaos (no retry storm), that breakers open and
// recover, that the admission rate limiter engages under surge, that
// tail-based trace sampling retains 100% of its tail, and that tail
// latency stays inside the committed baseline band via prtr-report (the
// run is fully deterministic, so every simulated scalar reproduces
// exactly). With --trace, a reduced surge run exports its kept request
// traces as Chrome/Perfetto JSON for prtr-verify and prtr-trace. Its own
// flags, --requests and --spec, are listed in cases.def.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "analyze/checks_fleet.hpp"
#include "case.hpp"
#include "exec/pool.hpp"
#include "fleet/fleet.hpp"
#include "tasks/hwfunction.hpp"
#include "util/error.hpp"
#include "util/table.hpp"

namespace {

using namespace prtr;

constexpr std::uint64_t kFleetSeed = 61927;  // matches examples/fleet/*.fleet
constexpr std::uint64_t kDefaultRequests = 1'000'000;

/// The committed-baseline configuration: examples/fleet/steady.fleet.
fleet::FleetOptions baseOptions() {
  fleet::FleetOptions options;
  options.cells = 4;
  options.bladesPerCell = 6;
  options.requests = kDefaultRequests;
  options.seed = kFleetSeed;
  options.offeredLoad = 0.7;
  return options;
}

/// The chaos variant: 20% of blades (rounded per cell) run a hostile
/// plan — ICAP aborts, transfer timeouts, and link stalls — while the
/// healthy majority carries the traffic around the open breakers.
fleet::FleetOptions chaosOptions(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.degradedFraction = 0.2;
  options.degradedFaults.seed = base.seed ^ 0xC4A05u;
  options.degradedFaults.icapAbortRate = 0.30;
  options.degradedFaults.transferTimeoutRate = 0.10;
  options.degradedFaults.linkStallRate = 0.05;
  return options;
}

/// The surge variant: the same fleet pushed to 95% offered load with the
/// full observability stack on — per-user admission rate limiting,
/// tail-based request tracing, and the multi-window SLO burn-rate gate.
/// Buckets are per cell (each cell admits its shard of a user's traffic
/// independently), so the 4.5 rps quota sits below the ~5.4 rps per-user
/// per-cell offered rate: the buckets drain within seconds and the
/// limiter sheds the sustained excess. The shed fraction makes the SLO
/// breach by design — surge is the point that demonstrates the gates
/// fire, healthy is the point that demonstrates they stay quiet.
fleet::FleetOptions surgeOptions(const fleet::FleetOptions& base) {
  fleet::FleetOptions options = base;
  options.offeredLoad = 0.95;
  options.rateLimit.enabled = true;
  options.rateLimit.ratePerSecond = 4.5;
  options.rateLimit.burst = 10.0;
  options.tracing.enabled = true;
  options.tracing.sampleRate = 0.01;
  options.slo.enabled = true;
  return options;
}

/// One fleet point rendered for the byte-identity gate: the report body
/// plus every merged metric line.
std::string render(const fleet::FleetReport& report) {
  return report.toString() + report.metrics.toString();
}

double quantileUs(const obs::HistogramSummary& h, double q) {
  return h.quantile(q) / 1e6;
}

void pointScalars(obs::BenchReport& report, const std::string& prefix,
                  const fleet::FleetReport& r) {
  report.scalar(prefix + "_p50_us", quantileUs(r.latency, 0.50));
  report.scalar(prefix + "_p95_us", quantileUs(r.latency, 0.95));
  report.scalar(prefix + "_p99_us", quantileUs(r.latency, 0.99));
  report.scalar(prefix + "_completed", r.completed);
  report.scalar(prefix + "_failed", r.failed);
  report.scalar(prefix + "_shed_rate", r.shedRate());
  report.scalar(prefix + "_retries", r.retries);
  report.scalar(prefix + "_retries_denied", r.retriesDenied);
  report.scalar(prefix + "_retry_budget_consumption",
                r.retryBudgetConsumption());
  report.scalar(prefix + "_breaker_opens", r.breakerOpens);
  report.scalar(prefix + "_breaker_closes", r.breakerCloses);
  report.scalar(prefix + "_utilization_mean", r.utilizationMean);
}

/// The fleet configuration: the committed baseline, or `--spec`, with
/// `--requests` and `--seed` applied on top. Throws util::DomainError on
/// an unknown or valueless flag, a bad number, an unreadable spec, or a
/// configuration the linter rejects.
fleet::FleetOptions parseFlags(const obs::BenchReport& report) {
  std::optional<std::uint64_t> requests;
  std::string spec;
  const auto& rest = report.options().rest();
  for (std::size_t i = 0; i < rest.size(); i += 2) {
    const std::string& flag = rest[i];
    if (flag != "--requests" && flag != "--spec") {
      throw util::DomainError{"unknown argument '" + flag + "'"};
    }
    if (i + 1 == rest.size()) {
      throw util::DomainError{flag + " requires a value"};
    }
    const std::string& value = rest[i + 1];
    if (flag == "--requests") requests = bench::parseUnsigned(flag, value);
    if (flag == "--spec") spec = value;
  }
  fleet::FleetOptions options = baseOptions();
  if (!spec.empty()) {
    std::ifstream in{spec};
    if (!in) throw util::DomainError{"cannot open spec '" + spec + "'"};
    options = analyze::fleetSpecToOptions(analyze::parseFleetSpec(in));
  }
  options.requests = requests.value_or(options.requests);
  options.seed = report.options().seedOr(options.seed);

  // Refuse configurations the linter rejects before a million-request run.
  analyze::DiagnosticSink sink;
  analyze::checkFleetOptions(options, sink);
  if (sink.hasErrors()) {
    std::string text = sink.toText();
    text.pop_back();  // the driver ends the message line
    throw util::DomainError{"fleet configuration rejected:\n" + text};
  }
  return options;
}

}  // namespace

int prtr::bench::cases::fleet(obs::BenchReport& report) {
  const fleet::FleetOptions options = parseFlags(report);
  const std::size_t n = report.options().threads();
  exec::Pool::setGlobalThreads(n);

  std::cout << "=== Fleet: " << options.cells << " cells x "
            << options.bladesPerCell << " blades, " << options.requests
            << " requests (seed " << options.seed << ") ===\n\n";

  // Calibrate once; both points and both thread widths share the profile,
  // so the identity gate measures the fleet simulation alone.
  const auto registry = tasks::makePaperFunctions();
  const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      registry, runtime::ScenarioOptions{}, options.payloadBytes);

  const fleet::FleetOptions chaos = chaosOptions(options);
  const fleet::FleetOptions surge = surgeOptions(options);

  // --- Byte-identity at 1 vs N threads for every point: each runs pooled,
  // then serially, and the two renders must match.
  bool identical = true;
  const auto runPoint = [&](fleet::FleetOptions point) {
    point.threads = n;
    fleet::FleetReport pooled = runFleet(registry, profile, point);
    point.threads = 1;
    identical = identical &&
                render(runFleet(registry, profile, point)) == render(pooled);
    return pooled;
  };
  const fleet::FleetReport healthy = runPoint(options);
  const fleet::FleetReport degraded = runPoint(chaos);
  const fleet::FleetReport surged = runPoint(surge);

  util::Table table{{"point", "completed", "failed", "shed", "retries",
                     "denied", "opens", "closes", "p50 us", "p95 us",
                     "p99 us", "util"}};
  for (const auto& [name, r] :
       {std::pair<const char*, const fleet::FleetReport&>{"healthy", healthy},
        {"chaos", degraded},
        {"surge", surged}}) {
    table.row()
        .cell(name)
        .cell(r.completed)
        .cell(r.failed)
        .cell(r.shed)
        .cell(r.retries)
        .cell(r.retriesDenied)
        .cell(r.breakerOpens)
        .cell(r.breakerCloses)
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.50)))
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.95)))
        .cell(static_cast<std::uint64_t>(quantileUs(r.latency, 0.99)))
        .cell(util::formatDouble(r.utilizationMean, 3));
  }
  table.print(std::cout);
  report.table("fleet_points", table);

  std::cout << "\nfleet byte-identical at 1 vs " << n
            << " threads (healthy, chaos, surge): "
            << (identical ? "yes" : "NO") << '\n';

  // Graceful degradation: chaos inflates the tail but must not blow it up,
  // and the retry budget must hold (no retry storm). Both are gated by the
  // committed baseline through prtr-report; the ratio is printed for
  // humans.
  const double p99Ratio =
      quantileUs(healthy.latency, 0.99) <= 0.0
          ? 0.0
          : quantileUs(degraded.latency, 0.99) /
                quantileUs(healthy.latency, 0.99);
  std::cout << "chaos p99 / healthy p99: " << util::formatDouble(p99Ratio, 3)
            << "\nchaos retry-budget consumption: "
            << util::formatDouble(degraded.retryBudgetConsumption(), 4)
            << " (budget " << chaos.retry.budgetFraction << ")\n";

  // Surge observability: the limiter must engage, tail sampling must keep
  // its whole tail, and the SLO burn-rate verdict is printed and gated
  // against the committed baseline.
  std::cout << "surge shed by rate limiter: " << surged.shedRateLimited
            << " of " << surged.offered << " offered\n"
            << "surge traces: " << surged.tracesKept << " kept of "
            << surged.tracesRecorded << " recorded (tail "
            << surged.tracesKeptTail << "/" << surged.tailEligible
            << ", retention "
            << util::formatDouble(surged.tailRetention(), 3)
            << "), dropped by cap " << surged.tracesDroppedCap << '\n'
            << "surge SLO: " << (surged.slo.pass ? "pass" : "BREACH")
            << " (good fraction "
            << util::formatDouble(surged.slo.goodFraction, 6)
            << ", burn max fast/slow "
            << util::formatDouble(surged.slo.fastBurnMax, 2) << "/"
            << util::formatDouble(surged.slo.slowBurnMax, 2) << ", "
            << surged.slo.breachWindows << " breach window(s))\n";

  // With --trace, a reduced surge run exports its kept request traces
  // (full-length surge keeps every rate-limited shed — far too many
  // spans for a reviewable artifact).
  if (obs::ChromeTrace* trace = report.trace()) {
    fleet::FleetOptions exportOpts = surge;
    exportOpts.threads = n;
    exportOpts.requests = std::min<std::uint64_t>(surge.requests, 50'000);
    exportOpts.hooks.trace = trace;
    const fleet::FleetReport exported =
        runFleet(registry, profile, exportOpts);
    report.scalar("trace_export_kept", exported.tracesKept);
    std::cout << "trace: " << exported.tracesKept << " kept request(s)\n";
  }

  pointScalars(report, "healthy", healthy);
  pointScalars(report, "chaos", degraded);
  pointScalars(report, "surge", surged);
  report.scalar("chaos_p99_over_healthy", p99Ratio);
  report.scalar("surge_shed_ratelimited", surged.shedRateLimited);
  report.scalar("surge_traces_recorded", surged.tracesRecorded);
  report.scalar("surge_traces_kept", surged.tracesKept);
  report.scalar("surge_traces_kept_tail", surged.tracesKeptTail);
  report.scalar("surge_traces_kept_sampled", surged.tracesKeptSampled);
  report.scalar("surge_traces_dropped_cap", surged.tracesDroppedCap);
  report.scalar("surge_trace_tail_retention", surged.tailRetention());
  report.scalar("surge_slo_pass",
                std::uint64_t{surged.slo.pass ? 1u : 0u});
  report.scalar("surge_slo_good_fraction", surged.slo.goodFraction);
  report.scalar("surge_slo_fast_burn_max", surged.slo.fastBurnMax);
  report.scalar("surge_slo_slow_burn_max", surged.slo.slowBurnMax);
  report.scalar("surge_slo_breach_windows", surged.slo.breachWindows);
  report.scalar("requests", options.requests);
  report.scalar("outputs_identical", std::uint64_t{identical ? 1u : 0u});
  report.scalar("fleet_seed", options.seed);
  report.metrics(degraded.metrics);

  const bool ok =
      identical && healthy.failed == 0 && degraded.breakerOpens > 0 &&
      degraded.retryBudgetConsumption() <=
          chaos.retry.budgetFraction + 0.01 &&
      surged.shedRateLimited > 0 && surged.tailRetention() == 1.0;
  return ok ? 0 : 1;
}
