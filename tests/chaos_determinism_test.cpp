// Determinism contract of chaos runs (satellite of the fault subsystem):
// for a fixed fault seed, a full runScenario under injection must produce
// byte-identical reports and metrics at any exec-pool width, at every
// chaos rate including zero; rate 0 with recovery enabled must match the
// recovery-disabled baseline exactly (zero overhead when healthy); and the
// artifact cache must never serve an artifact whose build failed.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bitstream/builder.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "fabric/floorplan.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"

namespace prtr {
namespace {

/// Dual-PRR forced-miss scenario (the paper's Figure-9 shape) under the
/// given word-flip rate, rendered to the full report + metrics string —
/// every number the run publishes, including the fault.injected.* and
/// recovery.* counters.
std::string chaosRender(double rate, std::uint64_t seed, bool recovery) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 18, util::Bytes{1'000'000});
  runtime::ScenarioOptions options;
  options.layout = xd1::Layout::kDualPrr;
  options.basis = model::ConfigTimeBasis::kMeasured;
  options.forceMiss = true;
  options.faults.seed = seed;
  options.faults.wordFlipRate = rate;
  options.faults.icapAbortRate = rate > 0.0 ? 0.01 : 0.0;
  options.recovery.enabled = recovery;
  const runtime::ScenarioResult result =
      runtime::runScenario(registry, workload, options);
  return result.toString() + result.metrics.toString();
}

/// Renders every chaos rate through the exec pool at the given width and
/// concatenates; pool width must never change a byte.
std::string sweepRender(std::size_t threads) {
  const std::vector<double> rates = {0.0, 1e-6, 1e-4};
  exec::ForOptions options;
  options.threads = threads;
  const auto rendered = exec::parallelMap(
      rates,
      [](double rate) { return chaosRender(rate, 24091, /*recovery=*/true); },
      options);
  std::string joined;
  for (const std::string& r : rendered) joined += r;
  return joined;
}

TEST(ChaosDeterminismTest, SweepIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = sweepRender(1);
  EXPECT_EQ(sweepRender(8), serial);
}

TEST(ChaosDeterminismTest, RepeatedRunsAreByteIdenticalPerSeed) {
  EXPECT_EQ(chaosRender(1e-4, 24091, true), chaosRender(1e-4, 24091, true));
  EXPECT_NE(chaosRender(1e-4, 24091, true), chaosRender(1e-4, 7, true));
}

TEST(ChaosDeterminismTest, RateZeroWithRecoveryMatchesBaselineBytes) {
  // The zero-overhead-when-healthy acceptance criterion: enabling the
  // recovery runtime without any injection reproduces the pre-fault
  // baseline report byte-for-byte — recovery.* counters are only emitted
  // when the policy is enabled, so strip them before comparing.
  const std::string baseline = chaosRender(0.0, 24091, /*recovery=*/false);
  std::string healthy = chaosRender(0.0, 24091, /*recovery=*/true);
  std::string stripped;
  std::size_t start = 0;
  while (start <= healthy.size()) {
    const std::size_t end = healthy.find('\n', start);
    const std::string line = healthy.substr(
        start, end == std::string::npos ? std::string::npos : end - start);
    if (line.find("recovery.") == std::string::npos) {
      stripped += line;
      if (end != std::string::npos) stripped += '\n';
    }
    if (end == std::string::npos) break;
    start = end + 1;
  }
  EXPECT_EQ(stripped, baseline);
}

TEST(ChaosDeterminismTest, ChaosRunCompletesViaLadderAndReportsLanding) {
  // At 1e-4/word the dual-PRR scenario sees ~10 flips per partial load;
  // the run must still complete, absorbing them through verify/repair and
  // (for aborts) the ladder, and say where it landed.
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 18, util::Bytes{1'000'000});
  runtime::ScenarioOptions options;
  options.layout = xd1::Layout::kDualPrr;
  options.forceMiss = true;
  options.faults.seed = 24091;
  options.faults.wordFlipRate = 1e-4;
  options.faults.icapAbortRate = 0.01;
  options.recovery.enabled = true;
  const runtime::ScenarioResult result =
      runtime::runScenario(registry, workload, options);

  const auto& counters = result.metrics.counters;
  const auto counter = [&](const std::string& name) -> std::uint64_t {
    const auto it = counters.find(name);
    return it == counters.end() ? 0u : it->second;
  };
  EXPECT_GT(counter("prtr.fault.injected.total"), 0u);
  EXPECT_GT(counter("prtr.recovery.requests"), 0u);
  EXPECT_GT(counter("prtr.recovery.verifications"), 0u);
  EXPECT_GT(counter("prtr.recovery.degraded_to"), 0u);  // landed on some rung
  EXPECT_GT(result.speedup, 1.0);  // PRTR still wins under chaos
}

TEST(ChaosDeterminismTest, FailedArtifactBuildsAreNeverCached) {
  // Single-flight failure contract: a build that throws must propagate to
  // the caller and leave nothing resident, so the next caller rebuilds
  // (and can succeed) instead of being served a phantom artifact.
  exec::ArtifactCache cache;
  const exec::ArtifactCache::Key key =
      exec::KeyBuilder{}.add("chaos.failed-build").value();
  EXPECT_THROW(
      (void)cache.bitstream(key,
                            []() -> bitstream::Bitstream {
                              throw util::FaultError{
                                  "injected fault during artifact build"};
                            }),
      util::FaultError);
  EXPECT_EQ(cache.stats().entries, 0u);

  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  const auto stream = cache.bitstream(
      key, [&] { return builder.buildModulePartial(plan.prr(0), 7); });
  ASSERT_NE(stream, nullptr);
  // Two builder invocations (the failure was not cached), then a real hit.
  EXPECT_EQ(cache.stats().misses, 2u);
  const auto again = cache.bitstream(key, [&]() -> bitstream::Bitstream {
    throw util::FaultError{"builder must not run on a hit"};
  });
  EXPECT_EQ(again->bytes(), stream->bytes());
  EXPECT_EQ(cache.stats().hits, 1u);
}

}  // namespace
}  // namespace prtr
