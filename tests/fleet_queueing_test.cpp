// The fleet loop against queueing theory, an oracle independent of the
// simulator: a cell of one blade serving one function, with Poisson
// arrivals, fixed payloads, no faults, no breaker and no shedding, is an
// M/D/1 queue. Its mean wait in queue must match Pollaczek-Khinchine,
// Wq = rho * S / (2 (1 - rho)), within a confidence bound built from the
// means of independent replications (one batch per seed).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "fleet/fleet.hpp"
#include "tasks/hwfunction.hpp"

namespace prtr {
namespace {

constexpr std::uint64_t kReplications = 16;
constexpr std::uint64_t kRequestsPerReplication = 40'000;
/// Two-sided 99.9% Student t quantile at kReplications - 1 = 15 degrees of
/// freedom.
constexpr double kT15 = 4.073;

const tasks::FunctionRegistry& oneFunction() {
  static const tasks::FunctionRegistry registry =
      tasks::makeSyntheticFunctions(1, 2.0);
  return registry;
}

/// The calibrated profile with the persona load made free. The blade
/// loads its one persona once, on the first request; that load (~20 service
/// times) is a start-up backlog outside the M/D/1 model and would raise the
/// mean wait by ~1% at 40 k requests.
const fleet::BladeProfile& oneFunctionProfile() {
  static const fleet::BladeProfile profile = [] {
    fleet::BladeProfile p = fleet::calibrateBladeProfile(
        oneFunction(), runtime::ScenarioOptions{}, util::Bytes::kibi(64));
    p.tasks.at(0).configPs = 0;
    return p;
  }();
  return profile;
}

fleet::FleetOptions md1(double rho, std::uint64_t seed) {
  fleet::FleetOptions options;
  options.cells = 1;
  options.bladesPerCell = 1;
  options.requests = kRequestsPerReplication;
  options.seed = seed;
  options.threads = 1;
  options.arrival = fleet::ArrivalProcess::kPoisson;
  options.offeredLoad = rho;
  options.payloadBytes = util::Bytes::kibi(64);
  options.payloadSpread = 0.0;
  options.breaker.enabled = false;
  options.admission.sloFactor = 1e6;
  options.admission.maxQueueDepth = std::numeric_limits<std::uint32_t>::max();
  return options;
}

class FleetMD1Test : public ::testing::TestWithParam<double> {};

TEST_P(FleetMD1Test, MeanWaitMatchesPollaczekKhinchine) {
  const double load = GetParam();
  const fleet::BladeProfile& profile = oneFunctionProfile();
  const std::uint64_t payload = util::Bytes::kibi(64).count();
  // The deterministic service time (the persona stays resident after the
  // first load) and the mean interarrival the cell derives from the load.
  const auto servicePs =
      static_cast<double>(profile.tasks.at(0).execPs(payload));
  const auto interarrivalPs = static_cast<double>(
      static_cast<std::int64_t>(servicePs / load));
  const double rho = servicePs / interarrivalPs;
  const double expectedWaitPs = rho * servicePs / (2.0 * (1.0 - rho));

  std::vector<double> batchMeans;
  for (std::uint64_t r = 0; r < kReplications; ++r) {
    const fleet::FleetReport report =
        runFleet(oneFunction(), profile, md1(load, 1000 + r));
    ASSERT_EQ(report.shed, 0u);
    ASSERT_EQ(report.completed, kRequestsPerReplication);
    const auto it = report.metrics.histograms.find("fleet.queue_wait_ps");
    ASSERT_NE(it, report.metrics.histograms.end());
    ASSERT_EQ(it->second.count, kRequestsPerReplication);
    batchMeans.push_back(it->second.mean());
  }
  double mean = 0.0;
  for (const double m : batchMeans) mean += m;
  mean /= static_cast<double>(kReplications);
  double var = 0.0;
  for (const double m : batchMeans) var += (m - mean) * (m - mean);
  var /= static_cast<double>(kReplications - 1);
  const double stderrPs = std::sqrt(var / static_cast<double>(kReplications));

  // The bound is tight enough to tell M/D/1 from M/M/1 (twice the wait).
  ASSERT_LT(stderrPs, 0.05 * expectedWaitPs);
  EXPECT_NEAR(mean, expectedWaitPs, kT15 * stderrPs)
      << "rho " << rho << ", S " << servicePs << " ps, relative error "
      << (mean - expectedWaitPs) / expectedWaitPs;
}

INSTANTIATE_TEST_SUITE_P(Loads, FleetMD1Test,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

}  // namespace
}  // namespace prtr
