// prtr::fleet contract tests: calibration sanity, byte-identical output at
// any thread count, the retry-budget cap, circuit-breaker open/half-open/
// close cycling under a hostile fault plan, load shedding under overload,
// hedged requests, request accounting (admitted = completed + failed),
// request memory bounded by the in-flight population (recycled slots), and
// digest pins of a healthy default run, of a hedged, traced chaos run and of
// a run whose events keep falling on the same picosecond (schedule-order
// tie-breaks).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "analyze/checks_fleet.hpp"
#include "fleet/fleet.hpp"
#include "obs/trace_export.hpp"
#include "tasks/hwfunction.hpp"
#include "util/error.hpp"
#include "verify/trace_load.hpp"

namespace prtr {
namespace {

const tasks::FunctionRegistry& paperRegistry() {
  static const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  return registry;
}

/// Calibration runs the full blade simulator per function, so the suite
/// shares one profile at a small payload.
const fleet::BladeProfile& sharedProfile() {
  static const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      paperRegistry(), runtime::ScenarioOptions{}, util::Bytes::kibi(64));
  return profile;
}

fleet::FleetOptions smallFleet() {
  fleet::FleetOptions options;
  options.cells = 4;
  options.bladesPerCell = 3;
  options.requests = 20'000;
  options.payloadBytes = util::Bytes::kibi(64);
  options.users = 32;
  return options;
}

fault::Plan hostilePlan() {
  fault::Plan plan;
  plan.seed = 77;
  plan.icapAbortRate = 0.30;
  plan.transferTimeoutRate = 0.10;
  plan.linkStallRate = 0.05;
  return plan;
}

TEST(FleetCalibrationTest, ProfilesEveryFunctionWithPositiveCosts) {
  const fleet::BladeProfile& profile = sharedProfile();
  ASSERT_EQ(profile.tasks.size(), paperRegistry().size());
  for (const fleet::TaskProfile& t : profile.tasks) {
    EXPECT_GE(t.execFixedPs, 0);
    EXPECT_GT(t.execPs(64 * 1024), 0);
    EXPECT_GT(t.configPs, 0) << "persona reload must cost time";
    EXPECT_GT(t.configWords, 0u) << "persona reload must write words";
  }
  EXPECT_GT(profile.meanExecPs(64 * 1024), 0);
  EXPECT_GT(profile.meanConfigPs(), 0);
}

TEST(FleetDeterminismTest, ByteIdenticalAcrossThreadCounts) {
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.hedge.enabled = true;

  options.threads = 1;
  const fleet::FleetReport serial =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.threads = 4;
  const fleet::FleetReport parallel =
      runFleet(paperRegistry(), sharedProfile(), options);

  EXPECT_EQ(serial.metrics.toString(), parallel.metrics.toString());
  EXPECT_EQ(serial.toString(), parallel.toString());
  EXPECT_EQ(serial.makespan, parallel.makespan);
}

TEST(FleetDeterminismTest, SeedChangesTheRun) {
  fleet::FleetOptions options = smallFleet();
  const fleet::FleetReport a =
      runFleet(paperRegistry(), sharedProfile(), options);
  options.seed ^= 1;
  const fleet::FleetReport b =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_NE(a.metrics.toString(), b.metrics.toString());
}

TEST(FleetHealthyTest, NoFaultsMeansNoFailuresRetriesOrBreakerActivity) {
  const fleet::FleetOptions options = smallFleet();
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.offered, 0u);
  EXPECT_EQ(report.failed, 0u);
  EXPECT_EQ(report.retries, 0u);
  EXPECT_EQ(report.breakerOpens, 0u);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
  EXPECT_EQ(report.offered, report.admitted + report.shed);
  EXPECT_GT(report.latency.count, 0u);
  EXPECT_GT(report.utilizationMean, 0.0);
  EXPECT_LE(report.utilizationMax, 1.0 + 1e-9);
}

TEST(FleetRetryTest, BudgetCapsRetriesAtTheConfiguredFraction) {
  fleet::FleetOptions options = smallFleet();
  options.faults = hostilePlan();  // every blade is hostile: retry pressure
  options.retry.maxAttempts = 4;
  options.retry.budgetFraction = 0.10;
  options.retry.burstTokens = 5.0;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  ASSERT_GT(report.retries, 0u) << "a hostile plan must provoke retries";
  // Token-bucket invariant, per cell: retries <= fraction * admitted +
  // burst. Summed over cells the burst allowance scales with cell count.
  const double cap =
      options.retry.budgetFraction * static_cast<double>(report.admitted) +
      options.retry.burstTokens * static_cast<double>(options.cells);
  EXPECT_LE(static_cast<double>(report.retries), cap);
  EXPECT_GT(report.retriesDenied, 0u)
      << "a 10% budget under a 30%-abort plan must run dry";
  EXPECT_LE(report.retryBudgetConsumption(),
            options.retry.budgetFraction + 0.01);
}

TEST(FleetBreakerTest, OpensOnDegradedBladesAndRecoversViaProbes) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 40'000;
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.breakerOpens, 0u)
      << "a 30%-abort blade must trip its breaker";
  EXPECT_GT(report.breakerCloses, 0u)
      << "half-open probes at 70% success must eventually close it";
  EXPECT_GT(report.metrics.counterOr("fleet.breaker.half_opens"), 0u);
  // Healthy majority keeps the fleet serving.
  EXPECT_GT(report.completed, report.admitted / 2);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
}

TEST(FleetAdmissionTest, OverloadSheds) {
  fleet::FleetOptions options = smallFleet();
  options.offeredLoad = 1.8;
  options.admission.sloFactor = 4.0;
  options.admission.maxQueueDepth = 8;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.shed, 0u) << "1.8x offered load must shed";
  EXPECT_GT(report.shedRate(), 0.0);
  // Shedding bounds the queue: nobody waits past the SLO-derived deadline
  // plus one service time's worth of estimation slack.
  EXPECT_EQ(report.offered, report.admitted + report.shed);
}

TEST(FleetHedgeTest, HedgesFireAndAreAccounted) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 40'000;
  options.hedge.enabled = true;
  options.hedge.minSamples = 200;
  options.hedge.budgetFraction = 0.10;
  // Link stalls on every blade make stragglers for hedges to beat.
  options.faults.linkStallRate = 0.05;
  options.faults.stallDuration = util::Time::milliseconds(2);
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.hedges, 0u);
  EXPECT_LE(report.hedgeWins, report.hedges);
  const std::uint64_t cancelled =
      report.metrics.counterOr("fleet.hedge_cancelled");
  EXPECT_LE(report.hedgeWins + cancelled, report.hedges + report.completed);
  EXPECT_EQ(report.admitted, report.completed + report.failed);
}

/// FNV-1a over a report's text and metrics: a byte-identity pin.
std::uint64_t reportDigest(const fleet::FleetReport& report) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : report.toString() + report.metrics.toString()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

TEST(FleetHedgeTest, HedgedChaosRunIsPinned) {
  // No committed baseline counts hedges, so this pins hedged dispatch with
  // every mechanism that schedules a timer or reroutes: hedges, retries,
  // tracing, and breakers tripping on degraded blades.
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.faults.linkStallRate = 0.05;
  options.faults.stallDuration = util::Time::milliseconds(2);
  options.hedge.enabled = true;
  options.hedge.minSamples = 200;
  options.hedge.budgetFraction = 0.10;
  options.tracing.enabled = true;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_GT(report.hedges, 0u);
  EXPECT_GT(report.breakerOpens, 0u);
  EXPECT_EQ(reportDigest(report), 0xe7379ceea6753bcfULL)
      << report.toString() << report.metrics.toString();
}

TEST(FleetHealthyTest, DefaultRunIsPinnedAtAnyWidth) {
  // A fault-free, untraced run of the default fleet: the fault, retry,
  // hedge, breaker and trace counters never fire, so the pin covers which
  // series a cell leaves out as much as the values it writes.
  fleet::FleetOptions options;
  options.requests = 20'000;
  for (const std::size_t threads : {1u, 4u}) {
    options.threads = threads;
    const fleet::FleetReport report =
        runFleet(paperRegistry(), sharedProfile(), options);
    EXPECT_EQ(report.failed, 0u);
    for (const char* absent :
         {"fleet.completed.failed", "fleet.retries", "fleet.hedges",
          "fleet.breaker.opens", "fleet.config.faults", "fleet.link.stalls",
          "fleet.trace.recorded", "fleet.slo.good"}) {
      EXPECT_FALSE(report.metrics.counters.contains(absent)) << absent;
    }
    EXPECT_EQ(reportDigest(report), 0x327afa89c3735771ULL)
        << "threads=" << threads << '\n'
        << report.toString() << report.metrics.toString();
  }
}

TEST(FleetDeterminismTest, SimultaneousEventsFireInScheduleOrder) {
  // Every service, gap, stall and backoff is a multiple of 100 us, so
  // arrivals, completions and retry timers keep landing on the same
  // picosecond; only their schedule order (seq) tells them apart. The
  // digest pins that order.
  static const tasks::FunctionRegistry registry =
      tasks::makeSyntheticFunctions(2, 2.0);
  const std::int64_t us100 = util::Time::microseconds(100).ps();
  fleet::BladeProfile profile;
  profile.tasks = {{us100, 3 * us100, 0.0, 1000}, {2 * us100, us100, 0.0, 1000}};
  fleet::FleetOptions options;
  options.cells = 2;
  options.bladesPerCell = 3;
  options.requests = 20'000;
  options.arrival = fleet::ArrivalProcess::kTrace;
  options.trace = {{us100, 0, 0}, {us100, 1, 0}, {2 * us100, -1, 0},
                   {us100, -1, 0}};
  options.payloadBytes = util::Bytes::kibi(64);
  options.payloadSpread = 0.0;
  options.retry.backoffBase = util::Time::microseconds(100);
  options.degradedFraction = 0.5;
  options.degradedFaults.arrival = fault::Arrival::kFixedPeriod;
  options.degradedFaults.fixedPeriod = 2;
  options.degradedFaults.icapAbortRate = 0.5;
  options.degradedFaults.linkStallRate = 0.5;
  // Every failure slides a rung and the first rung opens the breaker, so
  // breakers open and close throughout.
  options.escalateAfter = 1;
  options.breaker.openRung = config::RecoveryRung::kDifferencePartial;
  options.hedge.enabled = true;
  options.hedge.minSamples = 50;
  options.tracing.enabled = true;
  const fleet::FleetReport report = runFleet(registry, profile, options);
  EXPECT_GT(report.retries, 0u);
  EXPECT_GT(report.hedges, 0u);
  EXPECT_GT(report.breakerCloses, 0u);
  EXPECT_EQ(reportDigest(report), 0x0dd634ee06d46ee6ULL)
      << report.toString() << report.metrics.toString();
}

TEST(FleetOptionsTest, ValidationRejectsBrokenTopologies) {
  fleet::FleetOptions options = smallFleet();
  options.bladesPerCell = 7;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options = smallFleet();
  options.offeredLoad = 0.0;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
  options = smallFleet();
  options.arrival = fleet::ArrivalProcess::kTrace;
  EXPECT_THROW(
      (void)runFleet(paperRegistry(), sharedProfile(), options),
      util::DomainError);
}

TEST(FleetTraceTest, TraceArrivalsReplayDeterministically) {
  fleet::FleetOptions options = smallFleet();
  options.requests = 5'000;
  options.arrival = fleet::ArrivalProcess::kTrace;
  options.trace = {
      {util::Time::microseconds(40).ps(), 0, 0},
      {util::Time::microseconds(5).ps(), 1, 32 * 1024},
      {util::Time::microseconds(90).ps(), -1, 0},
  };
  const fleet::FleetReport a =
      runFleet(paperRegistry(), sharedProfile(), options);
  const fleet::FleetReport b =
      runFleet(paperRegistry(), sharedProfile(), options);
  EXPECT_EQ(a.metrics.toString(), b.metrics.toString());
  EXPECT_GT(a.completed, 0u);
}

TEST(FleetSpecTest, RoundTripsThroughTheSpecFormat) {
  std::istringstream spec{R"(# chaos fleet
cells 3
blades 5
requests 1234
arrival fixed-rate
offered-load 0.6
routing least-loaded
max-attempts 4
retry-budget 0.15
breaker-failures 7
hedge true
hedge-quantile 0.9
degraded-fraction 0.2
)"};
  const analyze::FleetSpec parsed = analyze::parseFleetSpec(spec);
  const fleet::FleetOptions options = analyze::fleetSpecToOptions(parsed);
  EXPECT_EQ(options.cells, 3u);
  EXPECT_EQ(options.bladesPerCell, 5u);
  EXPECT_EQ(options.requests, 1234u);
  EXPECT_EQ(options.arrival, fleet::ArrivalProcess::kFixedRate);
  EXPECT_EQ(options.routing, fleet::RoutingPolicy::kLeastLoaded);
  EXPECT_DOUBLE_EQ(options.offeredLoad, 0.6);
  EXPECT_EQ(options.retry.maxAttempts, 4u);
  EXPECT_DOUBLE_EQ(options.retry.budgetFraction, 0.15);
  EXPECT_EQ(options.breaker.consecutiveFailures, 7u);
  EXPECT_TRUE(options.hedge.enabled);
  EXPECT_DOUBLE_EQ(options.hedge.quantile, 0.9);
  EXPECT_DOUBLE_EQ(options.degradedFraction, 0.2);

  std::istringstream bad{"cells 2 3\n"};
  EXPECT_THROW((void)analyze::parseFleetSpec(bad), util::DomainError);
  std::istringstream unknown{"no-such-key 1\n"};
  EXPECT_THROW((void)analyze::parseFleetSpec(unknown), util::DomainError);
}

/// The steady configuration of examples/fleet/steady.fleet: the
/// FleetOptions defaults (4 cells of 6 blades at 0.7 load, P2C, 1 MiB
/// payloads, no faults) under the spec's seed.
fleet::FleetOptions steadyFleet(std::uint64_t requests) {
  fleet::FleetOptions options;
  options.seed = 61927;
  options.requests = requests;
  return options;
}

/// The blade profile at the steady configuration's 1 MiB payload.
const fleet::BladeProfile& steadyProfile() {
  static const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      paperRegistry(), runtime::ScenarioOptions{},
      fleet::FleetOptions{}.payloadBytes);
  return profile;
}

TEST(FleetMemoryTest, SlotsStayBoundedByInFlight) {
  // Request memory follows the in-flight population: ten times the
  // requests must not need ten times the slots.
  const fleet::FleetReport small =
      runFleet(paperRegistry(), steadyProfile(), steadyFleet(100'000));
  const fleet::FleetReport large =
      runFleet(paperRegistry(), steadyProfile(), steadyFleet(1'000'000));
  ASSERT_EQ(large.completed, 1'000'000u);
  EXPECT_GT(small.requestSlots, 0u);
  EXPECT_LE(large.requestSlots, 2 * small.requestSlots);
  EXPECT_LE(small.requestSlots * 100, small.offered);
  EXPECT_LE(large.requestSlots * 100, large.offered);
  // A cost counter, not a simulated output.
  EXPECT_EQ(small.toString().find("slot"), std::string::npos);
  EXPECT_EQ(small.metrics.toString().find("slot"), std::string::npos);
}

TEST(FleetMemoryTest, PendingTimersPinTheirSlot) {
  // Retry backoffs and hedge timers name a slot after its request may
  // have gone quiet; recycling such a slot early would hand a timer a
  // stranger's request. Every mechanism that schedules one is engaged.
  fleet::FleetOptions options = smallFleet();
  options.degradedFraction = 0.25;
  options.degradedFaults = hostilePlan();
  options.faults.linkStallRate = 0.05;
  options.faults.stallDuration = util::Time::milliseconds(2);
  options.hedge.enabled = true;
  options.hedge.minSamples = 200;
  options.hedge.budgetFraction = 0.10;
  options.tracing.enabled = true;
  options.tracing.sampleRate = 1.0;
  options.tracing.maxSampledPerCell = 1'000'000;

  obs::ChromeTrace serialTrace;
  options.threads = 1;
  options.hooks.trace = &serialTrace;
  const fleet::FleetReport serial =
      runFleet(paperRegistry(), sharedProfile(), options);
  obs::ChromeTrace parallelTrace;
  options.threads = 4;
  options.hooks.trace = &parallelTrace;
  const fleet::FleetReport parallel =
      runFleet(paperRegistry(), sharedProfile(), options);

  ASSERT_GT(serial.retries, 0u);
  ASSERT_GT(serial.hedges, 0u);
  EXPECT_EQ(serial.offered, serial.completed + serial.failed + serial.shed);
  EXPECT_EQ(serial.tracesRecorded, serial.offered);
  EXPECT_EQ(serial.tracesKept, serial.offered);
  EXPECT_LT(serial.requestSlots, options.requests / options.cells);
  // Trace ids follow arrival ordinals, never recycled slots.
  for (const trace::CellTrace& cell : serial.traces.cells) {
    std::set<std::uint32_t> ordinals;
    for (const trace::RequestTrace& rt : cell.kept) {
      EXPECT_TRUE(ordinals.insert(rt.index).second) << "ordinal " << rt.index;
      EXPECT_EQ(rt.traceId, trace::requestTraceId(options.seed, cell.cell,
                                                  rt.index));
    }
    EXPECT_EQ(ordinals.size(), cell.recorded);
  }

  const auto processes = verify::loadChromeTrace(serialTrace.toJson());
  ASSERT_FALSE(processes.empty());
  analyze::DiagnosticSink sink;
  verify::checkTrace(processes, sink);
  EXPECT_TRUE(sink.empty()) << sink.toText();

  EXPECT_EQ(serial.metrics.toString(), parallel.metrics.toString());
  EXPECT_EQ(serial.toString(), parallel.toString());
  EXPECT_EQ(serial.requestSlots, parallel.requestSlots);
  EXPECT_EQ(serialTrace.toJson(), parallelTrace.toJson());
}

TEST(FleetHorizonTest, HundredMillionRequestsFitTheTimeAxis) {
  // The surge configuration of examples/fleet/surge.fleet, whose arrival
  // rate sets the makespan: 100 M requests must stay far inside the int64
  // picosecond axis. Open-loop arrivals make the makespan linear in the
  // request count.
  fleet::FleetOptions options = steadyFleet(100'000);
  options.offeredLoad = 0.9;
  options.routing = fleet::RoutingPolicy::kLeastLoaded;
  const fleet::FleetReport report =
      runFleet(paperRegistry(), steadyProfile(), options);
  const double hundredMillionPs =
      static_cast<double>(report.makespan.ps()) * (100'000'000 / 100'000);
  EXPECT_LE(hundredMillionPs,
            0.02 * static_cast<double>(
                       std::numeric_limits<std::int64_t>::max()));
}

TEST(FleetOptionsTest, ValidationRejectsPerCellQuotasPastTheOrdinal) {
  // Ordinals are 32 bits; recycled slots no longer bound the count.
  fleet::FleetOptions options = smallFleet();
  options.cells = 1;
  options.requests = std::uint64_t{1} << 32;
  EXPECT_THROW((void)runFleet(paperRegistry(), sharedProfile(), options),
               util::DomainError);
  options.cells = 4;
  options.requests = (std::uint64_t{4} << 32) - 3;  // one cell gets 2^32
  EXPECT_THROW((void)runFleet(paperRegistry(), sharedProfile(), options),
               util::DomainError);
}

}  // namespace
}  // namespace prtr
