// Tests for the configuration cache policies (LRU/LFU/FIFO/Random/Belady).
#include <gtest/gtest.h>

#include "runtime/cache.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::runtime {
namespace {

/// Replays `sequence` against `cache`, installing on every miss (no
/// avoided slot), and returns the hit count.
std::uint64_t replay(ConfigCache& cache, const std::vector<ModuleId>& sequence) {
  for (const ModuleId m : sequence) {
    if (auto* belady = dynamic_cast<BeladyCache*>(&cache)) belady->advance();
    if (!cache.access(m)) {
      const auto slot = cache.chooseSlot(m, std::nullopt);
      cache.install(*slot, m);
    }
  }
  return cache.stats().hits;
}

TEST(ConfigCacheTest, BasicsAndLookup) {
  LruCache cache{2};
  EXPECT_EQ(cache.slotCount(), 2u);
  EXPECT_EQ(cache.lookup(7), std::nullopt);
  EXPECT_FALSE(cache.access(7).has_value());  // miss
  cache.install(0, 7);
  EXPECT_EQ(cache.lookup(7), std::optional<std::size_t>{0});
  EXPECT_TRUE(cache.access(7).has_value());  // hit
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hitRatio(), 0.5);
}

TEST(ConfigCacheTest, PrefersEmptySlots) {
  LruCache cache{3};
  cache.install(0, 1);
  const auto slot = cache.chooseSlot(2, std::nullopt);
  ASSERT_TRUE(slot.has_value());
  EXPECT_NE(*slot, 0u);  // empty slot preferred over eviction
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(ConfigCacheTest, AvoidExcludesExecutingSlot) {
  LruCache cache{2};
  cache.install(0, 1);
  cache.install(1, 2);
  const auto slot = cache.chooseSlot(3, /*avoid=*/0);
  EXPECT_EQ(slot, std::optional<std::size_t>{1});
}

TEST(ConfigCacheTest, SingleSlotWithAvoidReturnsNothing) {
  LruCache cache{1};
  cache.install(0, 1);
  EXPECT_EQ(cache.chooseSlot(2, 0), std::nullopt);
}

TEST(ConfigCacheTest, InvalidateAllEmptiesSlots) {
  LruCache cache{2};
  cache.install(0, 1);
  cache.install(1, 2);
  cache.invalidateAll();
  EXPECT_EQ(cache.lookup(1), std::nullopt);
  EXPECT_EQ(cache.slotContent(0), std::nullopt);
}

TEST(LruTest, EvictsLeastRecentlyUsed) {
  LruCache cache{2};
  (void)cache.access(1);
  cache.install(0, 1);
  (void)cache.access(2);
  cache.install(1, 2);
  (void)cache.access(1);  // touch module 1; module 2 becomes LRU
  const auto victim = cache.chooseSlot(3, std::nullopt);
  EXPECT_EQ(victim, std::optional<std::size_t>{1});
}

TEST(LfuTest, EvictsLeastFrequentlyUsed) {
  LfuCache cache{2};
  (void)cache.access(1);
  cache.install(0, 1);
  (void)cache.access(2);
  cache.install(1, 2);
  (void)cache.access(1);
  (void)cache.access(1);
  (void)cache.access(2);
  const auto victim = cache.chooseSlot(3, std::nullopt);
  EXPECT_EQ(victim, std::optional<std::size_t>{1});  // module 2 used less
}

TEST(FifoTest, EvictsOldestInstall) {
  FifoCache cache{2};
  (void)cache.access(1);
  cache.install(0, 1);
  (void)cache.access(2);
  cache.install(1, 2);
  // Touching module 1 does not rescue it under FIFO.
  (void)cache.access(1);
  (void)cache.access(1);
  const auto victim = cache.chooseSlot(3, std::nullopt);
  EXPECT_EQ(victim, std::optional<std::size_t>{0});
}

TEST(RandomTest, DeterministicForSeed) {
  RandomCache a{4, 99};
  RandomCache b{4, 99};
  for (ModuleId m = 1; m <= 4; ++m) {
    a.install(static_cast<std::size_t>(m - 1), m);
    b.install(static_cast<std::size_t>(m - 1), m);
  }
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.chooseSlot(100, std::nullopt), b.chooseSlot(100, std::nullopt));
  }
}

TEST(BeladyTest, BeatsOrMatchesEveryOnlinePolicyOnLoopingSequence) {
  // Cyclic access over 3 modules with 2 slots: the adversarial case where
  // LRU degenerates; Belady must dominate.
  std::vector<ModuleId> seq;
  for (std::uint64_t i = 0; i < 300; ++i) seq.push_back(1 + (i % 3));

  BeladyCache belady{2, seq};
  LruCache lru{2};
  LfuCache lfu{2};
  FifoCache fifo{2};
  const auto beladyHits = replay(belady, seq);
  EXPECT_GE(beladyHits, replay(lru, seq));
  EXPECT_GE(beladyHits, replay(lfu, seq));
  EXPECT_GE(beladyHits, replay(fifo, seq));
  // LRU on a 3-cycle with capacity 2 hits never; Belady hits ~half.
  EXPECT_EQ(lru.stats().hits, 0u);
  EXPECT_GT(beladyHits, 100u);
}

TEST(BeladyTest, DominatesOnSkewedWorkload) {
  util::Rng rng{44};
  std::vector<ModuleId> seq;
  for (int i = 0; i < 2000; ++i) {
    // 60% module 1, rest spread over 2..5.
    seq.push_back(rng.chance(0.6) ? 1 : 2 + rng.below(4));
  }
  BeladyCache belady{2, seq};
  LruCache lru{2};
  EXPECT_GE(replay(belady, seq), replay(lru, seq));
}

TEST(CacheFactoryTest, BuildsEveryPolicy) {
  for (const CachePolicy policy : allCachePolicies()) {
    const auto cache = makeCache(policy, 2, {1, 2, 3});
    EXPECT_EQ(cache->slotCount(), 2u);
  }
}

TEST(CacheFactoryTest, PolicyNames) {
  EXPECT_EQ(makeCache(CachePolicy::kLru, 2)->policyName(), "LRU");
  EXPECT_EQ(makeCache(CachePolicy::kBelady, 2)->policyName(), "Belady");
}

TEST(ConfigCacheTest, RejectsZeroSlots) {
  EXPECT_THROW(LruCache{0}, util::DomainError);
}

}  // namespace
}  // namespace prtr::runtime
