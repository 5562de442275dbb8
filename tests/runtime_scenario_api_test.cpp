// Tests for the redesigned scenario API surface: the typed CachePolicy /
// PrefetcherKind enums and their string boundaries, ScenarioSides, the
// assumedHitRatio option, and the default artifact store.
#include <gtest/gtest.h>

#include "exec/artifact_cache.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"

namespace {

using namespace prtr;

TEST(ScenarioApi, CachePolicyNamesRoundTrip) {
  for (const runtime::CachePolicy policy : runtime::allCachePolicies()) {
    const char* name = runtime::toString(policy);
    const auto parsed = runtime::cachePolicyFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(runtime::cachePolicyFromString("clock").has_value());
  EXPECT_FALSE(runtime::cachePolicyFromString("").has_value());
  EXPECT_FALSE(runtime::cachePolicyFromString("LRU").has_value())
      << "names are canonical lower-case; case-mapping is the caller's job";
}

TEST(ScenarioApi, PrefetcherKindNamesRoundTrip) {
  for (const runtime::PrefetcherKind kind : runtime::allPrefetcherKinds()) {
    const char* name = runtime::toString(kind);
    const auto parsed = runtime::prefetcherKindFromString(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(runtime::prefetcherKindFromString("psychic").has_value());
}

TEST(ScenarioApi, ScenarioSidesNames) {
  EXPECT_STREQ(runtime::toString(runtime::ScenarioSides::kBoth), "both");
  EXPECT_STREQ(runtime::toString(runtime::ScenarioSides::kPrtrOnly),
               "prtr-only");
}

runtime::ScenarioOptions baseOptions() {
  runtime::ScenarioOptions so;
  so.forceMiss = true;
  return so;
}

TEST(ScenarioApi, PrtrOnlySkipsTheFrtrSide) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  runtime::ScenarioOptions so = baseOptions();
  so.sides = runtime::ScenarioSides::kPrtrOnly;
  const auto result = runtime::runScenario(registry, workload, so);
  EXPECT_EQ(result.frtr.calls, 0u);
  EXPECT_EQ(result.frtr.total, util::Time::zero());
  EXPECT_EQ(result.speedup, 0.0);
  EXPECT_EQ(result.prtr.calls, 4u);
  EXPECT_GT(result.prtr.total, util::Time::zero());
}

TEST(ScenarioApi, PrtrSideIsIdenticalAcrossSidesSettings) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  runtime::ScenarioOptions both = baseOptions();
  runtime::ScenarioOptions only = baseOptions();
  only.sides = runtime::ScenarioSides::kPrtrOnly;
  const auto withFrtr = runtime::runScenario(registry, workload, both);
  const auto without = runtime::runScenario(registry, workload, only);
  EXPECT_EQ(withFrtr.prtr.total, without.prtr.total);
  EXPECT_EQ(withFrtr.prtr.configurations, without.prtr.configurations);
  EXPECT_EQ(withFrtr.prtr.configStall, without.prtr.configStall);
}

TEST(ScenarioApi, AssumedHitRatioFeedsModelDerivation) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  runtime::ScenarioOptions so = baseOptions();
  so.assumedHitRatio = 0.5;
  const auto atHalf = runtime::deriveModelParams(registry, workload, so);
  so.assumedHitRatio.reset();
  const auto atZero = runtime::deriveModelParams(registry, workload, so);
  EXPECT_DOUBLE_EQ(atHalf.hitRatio, 0.5);
  EXPECT_DOUBLE_EQ(atZero.hitRatio, 0.0);
}

TEST(ScenarioApi, NullArtifactsShareTheGlobalStore) {
  // Null ScenarioOptions::artifacts resolves through
  // exec::ArtifactCache::global(): a second run on the same layout finds the
  // floorplan and every stream the first one built, so nothing new builds.
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  const runtime::ScenarioOptions so = baseOptions();
  ASSERT_EQ(so.artifacts, nullptr);
  exec::ArtifactCache& global = exec::ArtifactCache::global();
  const auto first = runtime::runScenario(registry, workload, so);
  const exec::ArtifactCache::Stats afterFirst = global.stats();
  EXPECT_GT(afterFirst.entries, 0u);
  const auto second = runtime::runScenario(registry, workload, so);
  const exec::ArtifactCache::Stats afterSecond = global.stats();
  EXPECT_EQ(afterSecond.misses, afterFirst.misses);
  EXPECT_GT(afterSecond.hits, afterFirst.hits);
  EXPECT_EQ(second.prtr.total, first.prtr.total);
  EXPECT_EQ(second.frtr.total, first.frtr.total);
}

}  // namespace
