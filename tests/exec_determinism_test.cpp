// Determinism contract of the exec sweep engine: pooled figure sweeps and
// chassis runs must be byte-identical to the serial run at any thread
// count, whichever artifact store they resolve through (the global one, a
// private one, or a zero-budget one that keeps nothing). Rendered tables /
// report strings are the comparison medium — they capture every number the
// benches publish. The Fig-9 sweep's merged metrics are pinned by hash at
// every width and checked against the point-order fold of its scenarios.
// This suite also runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "analysis/figures.hpp"
#include "exec/artifact_cache.hpp"
#include "exec/pool.hpp"
#include "hprc/chassis.hpp"
#include "obs/metrics.hpp"

namespace prtr {
namespace {

/// FNV-1a (64-bit) over a rendered document: a byte-identity pin.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// The small Fig-9 grid (fig9Render's) whose merged metrics are pinned.
analysis::Fig9Options fig9MetricsGrid(model::ConfigTimeBasis basis,
                                      std::size_t threads,
                                      obs::MetricsSnapshot* metrics) {
  analysis::Fig9Options opts;
  opts.basis = basis;
  opts.points = 4;
  opts.xTaskLo = 0.05;
  opts.xTaskHi = 5.0;
  opts.nCalls = 12;
  opts.threads = threads;
  opts.metrics = metrics;
  return opts;
}

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

TEST(ExecDeterminismTest, Fig9SweepMetricsArePinnedAtAnyWidth) {
  // FNV-1a of the merged metrics JSON, recorded from the per-worker-shard
  // implementation the point-order fold replaced; every width must
  // reproduce it.
  struct Pin {
    model::ConfigTimeBasis basis;
    std::uint64_t fnv;
  };
  for (const Pin pin : {Pin{model::ConfigTimeBasis::kEstimated,
                            0x961ce4223bc9594aULL},
                        Pin{model::ConfigTimeBasis::kMeasured,
                            0x4b1441fe5775761cULL}}) {
    for (const std::size_t threads :
         {std::size_t{1}, std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
      obs::MetricsSnapshot metrics;
      (void)analysis::makeFig9(fig9MetricsGrid(pin.basis, threads, &metrics));
      EXPECT_EQ(fnv1a(metrics.toJson()), pin.fnv)
          << "basis=" << static_cast<int>(pin.basis) << " threads=" << threads;
    }
  }
}

TEST(ExecDeterminismTest, Fig9SweepMetricsAreThePointOrderFold) {
  // The sweep's snapshot is each point's runScenario counters and
  // histograms folded in point order (a point's gauges describe it alone),
  // plus one fig9.points_computed per point.
  const auto registry = tasks::makePaperFunctions();
  for (const model::ConfigTimeBasis basis :
       {model::ConfigTimeBasis::kEstimated,
        model::ConfigTimeBasis::kMeasured}) {
    obs::MetricsSnapshot metrics;
    const analysis::Fig9Options opts = fig9MetricsGrid(basis, 4, &metrics);
    const auto points = analysis::makeFig9(opts);
    ASSERT_EQ(points.size(), opts.points);

    obs::MetricsSnapshot expected;
    for (const analysis::Fig9Point& point : points) {
      runtime::ScenarioOptions so;
      so.layout = xd1::Layout::kDualPrr;
      so.basis = basis;
      so.tControl = util::Time::microseconds(10);
      so.forceMiss = true;
      so.prepare = runtime::PrepareSource::kQueue;
      const runtime::ScenarioResult result = runtime::runScenario(
          registry,
          tasks::makeRoundRobinWorkload(registry, opts.nCalls,
                                        point.dataBytes),
          so);
      obs::MetricsSnapshot additive = result.metrics;
      EXPECT_FALSE(additive.gauges.empty());
      additive.gauges.clear();
      expected.merge(std::move(additive));
    }
    expected.counters["fig9.points_computed"] = points.size();

    EXPECT_EQ(metrics, expected) << "basis=" << static_cast<int>(basis);
    EXPECT_TRUE(metrics.gauges.empty());
    EXPECT_EQ(metrics.counterOr("fig9.points_computed"), opts.points);
  }
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
