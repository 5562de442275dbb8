// Determinism contract of the exec sweep engine: pooled figure sweeps and
// chassis runs must be byte-identical to the serial run at any thread
// count, whichever artifact store they resolve through (the global one, a
// private one, or a zero-budget one that keeps nothing). Rendered tables /
// report strings are the comparison medium — they capture every number the
// benches publish.
#include <gtest/gtest.h>

#include <string>

#include "analysis/figures.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "hprc/chassis.hpp"

namespace prtr {
namespace {

std::string fig9Render(std::size_t threads, exec::ArtifactCache* artifacts) {
  analysis::Fig9Options opts;
  opts.basis = model::ConfigTimeBasis::kEstimated;
  opts.points = 4;
  opts.xTaskLo = 0.05;
  opts.xTaskHi = 5.0;
  opts.nCalls = 12;
  opts.threads = threads;
  opts.artifacts = artifacts;
  return analysis::fig9Table(analysis::makeFig9(opts)).toString();
}

std::string chassisRender(std::size_t threads,
                          exec::ArtifactCache* artifacts) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 18, util::Bytes{1'000'000});
  hprc::ChassisOptions options;
  options.blades = 3;
  options.threads = threads;
  options.scenario.forceMiss = true;
  options.scenario.basis = model::ConfigTimeBasis::kEstimated;
  options.scenario.artifacts = artifacts;
  const hprc::ChassisReport report =
      hprc::runChassis(registry, workload, options);
  // toString covers makespan/balance; the metrics string pins the ordered
  // bladeN.-prefixed merge, which is where nondeterminism would surface.
  return report.toString() + report.metrics.toString();
}

std::string fig5Render(std::size_t threads) {
  const auto series =
      analysis::makeFig5Series(0.17, {0.0, 0.5, 1.0}, 41, 1e-3, 100.0, threads);
  std::string out;
  for (const auto& s : series) {
    out += s.name;
    for (std::size_t i = 0; i < s.y.size(); ++i) {
      out += ',' + util::formatDouble(s.x[i], 9) + ':' +
             util::formatDouble(s.y[i], 9);
    }
    out += '\n';
  }
  return out;
}

TEST(ExecDeterminismTest, Fig9SweepIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = fig9Render(1, nullptr);
  EXPECT_EQ(fig9Render(2, nullptr), serial);
  EXPECT_EQ(fig9Render(8, nullptr), serial);
}

TEST(ExecDeterminismTest, Fig9SweepWithArtifactCacheMatchesUncached) {
  // A zero-budget store evicts every entry right after its build, so the
  // serial reference rebuilds every artifact it needs.
  exec::ArtifactCache uncached{0};
  const std::string serial = fig9Render(1, &uncached);
  EXPECT_EQ(uncached.stats().hits, 0u);
  exec::ArtifactCache cache;
  // Cold cache, then warm cache: both must reproduce the uncached bytes.
  EXPECT_EQ(fig9Render(8, &cache), serial);
  EXPECT_EQ(fig9Render(8, &cache), serial);
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(ExecDeterminismTest, Fig5SeriesAreByteIdenticalAcrossThreadCounts) {
  const std::string serial = fig5Render(1);
  EXPECT_EQ(fig5Render(2), serial);
  EXPECT_EQ(fig5Render(8), serial);
}

TEST(ExecDeterminismTest, ChassisRunIsByteIdenticalAcrossThreadCounts) {
  const std::string serial = chassisRender(1, nullptr);
  EXPECT_EQ(chassisRender(2, nullptr), serial);
  EXPECT_EQ(chassisRender(8, nullptr), serial);
}

TEST(ExecDeterminismTest, ChassisRunWithArtifactCacheMatchesUncached) {
  exec::ArtifactCache uncached{0};  // keeps nothing: every blade rebuilds
  const std::string serial = chassisRender(1, &uncached);
  EXPECT_EQ(uncached.stats().hits, 0u);
  exec::ArtifactCache cache;
  EXPECT_EQ(chassisRender(8, &cache), serial);
  EXPECT_EQ(chassisRender(8, &cache), serial);
}

}  // namespace
}  // namespace prtr
