// Tests for the exec artifact cache: exact key building, hit/miss
// accounting, LRU eviction under a byte budget (with handles surviving
// eviction), single-flight concurrent builds, and Library streams that a
// CRC-32 content address would alias.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <thread>
#include <vector>

#include "exec/artifact_cache.hpp"
#include "fabric/floorplan.hpp"
#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace prtr::exec {
namespace {

/// Cache key of test slot `n`.
ArtifactCache::Key key(std::uint64_t n) { return KeyBuilder{}.add(n).value(); }

/// Two module occupancies whose CRC-32 content addresses collide: equal
/// StreamKeys but for the occupancy get one 64-bit CRC address for any
/// device and region.
constexpr double kOccupancyA = 0.44978540800825495;
constexpr double kOccupancyB = 0.6288246822103033;

/// The 64-bit CRC-32 content address streams were once cached under: the
/// CRC of every StreamKey field, widened with the flow tag and frame count.
std::uint64_t crcContentAddress(const bitstream::StreamKey& key) {
  util::Crc32 crc;
  const auto feed = [&crc](std::uint64_t value) {
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i) {
      bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    }
    crc.update(bytes);
  };
  feed(key.deviceTag);
  feed(key.geometryCrc);
  feed(static_cast<std::uint64_t>(key.flow));
  feed(key.firstFrame);
  feed(key.frameCount);
  feed(key.fromModule);
  feed(key.toModule);
  feed(std::bit_cast<std::uint64_t>(key.fromOccupancy));
  feed(std::bit_cast<std::uint64_t>(key.toOccupancy));
  return (static_cast<std::uint64_t>(crc.value()) << 32) |
         (static_cast<std::uint64_t>(key.flow) << 24) |
         (key.frameCount & 0xFFFFFFu);
}

/// A small synthetic bitstream whose payload encodes `seed`.
bitstream::Bitstream makeStream(std::uint8_t seed, std::size_t bytes = 64) {
  bitstream::Header header;
  header.type = bitstream::StreamType::kPartial;
  header.moduleId = seed;
  return bitstream::Bitstream{header,
                              std::vector<std::uint8_t>(bytes, seed)};
}

TEST(KeyBuilderTest, DistinctInputsYieldDistinctKeys) {
  const auto k1 = KeyBuilder{}.add("floorplan").add(std::uint64_t{1}).value();
  const auto k2 = KeyBuilder{}.add("floorplan").add(std::uint64_t{2}).value();
  const auto k3 = KeyBuilder{}.add("bitstream").add(std::uint64_t{1}).value();
  EXPECT_NE(k1, k2);
  EXPECT_NE(k1, k3);
  // Same inputs reproduce the same key (content addressing).
  EXPECT_EQ(k1, KeyBuilder{}.add("floorplan").add(std::uint64_t{1}).value());
  // Field lengths are part of the address: "ab"+"c" != "a"+"bc".
  EXPECT_NE(KeyBuilder{}.add("ab").add("c").value(),
            KeyBuilder{}.add("a").add("bc").value());
  EXPECT_NE(KeyBuilder{}.add(1.5).value(), KeyBuilder{}.add(2.5).value());
}

TEST(KeyBuilderTest, OccupanciesWithCollidingCrcGiveDistinctKeys) {
  const auto a = KeyBuilder{}.add(std::uint64_t{1}).add(kOccupancyA).value();
  const auto b = KeyBuilder{}.add(std::uint64_t{1}).add(kOccupancyB).value();
  EXPECT_NE(a, b);
  // The key is the fed bytes themselves, so its length is fixed by the
  // fields, not by a hash width.
  EXPECT_EQ(a.size(), 16u);
  EXPECT_EQ(b.size(), 16u);
}

TEST(ArtifactCacheTest, MissThenHitCounts) {
  ArtifactCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return makeStream(7);
  };
  const auto first = cache.bitstream(key(1), build);
  const auto second = cache.bitstream(key(1), build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(first->header().moduleId, 7u);
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(ArtifactCacheTest, DistinctKeysBuildSeparately) {
  ArtifactCache cache;
  const auto a = cache.bitstream(key(1), [] { return makeStream(1); });
  const auto b = cache.bitstream(key(2), [] { return makeStream(2); });
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(ArtifactCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits two 64-byte streams (plus the stream objects).
  constexpr std::uint64_t kBudget = 2 * (64 + sizeof(bitstream::Bitstream));
  ArtifactCache cache{kBudget};
  const auto a = cache.bitstream(key(1), [] { return makeStream(1); });
  const auto b = cache.bitstream(key(2), [] { return makeStream(2); });
  // Touch key 1 so key 2 is the LRU victim when key 3 arrives.
  (void)cache.bitstream(key(1), [] { return makeStream(1); });
  const auto c = cache.bitstream(key(3), [] { return makeStream(3); });
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_LE(stats.bytes, kBudget);
  // The evicted artifact's handle stays valid for its holders.
  EXPECT_EQ(b->header().moduleId, 2u);
  EXPECT_EQ(b->bytes().size(), 64u);
  // Key 2 was evicted, so asking again rebuilds (a new miss).
  int rebuilds = 0;
  const auto b2 = cache.bitstream(key(2), [&] {
    ++rebuilds;
    return makeStream(2);
  });
  EXPECT_EQ(rebuilds, 1);
  EXPECT_NE(b2.get(), b.get());
  // Key 1 was touched most recently before 3; it may or may not have
  // survived the later insert, but the cache never exceeds its budget.
  EXPECT_LE(cache.stats().bytes, kBudget);
  (void)a;
  (void)c;
}

TEST(ArtifactCacheTest, ClearDropsEntriesButKeepsHandles) {
  ArtifactCache cache;
  const auto a = cache.bitstream(key(1), [] { return makeStream(9); });
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(a->header().moduleId, 9u);
}

TEST(ArtifactCacheTest, FloorplanEntriesAreCachedToo) {
  ArtifactCache cache;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return fabric::makeDualPrrLayout();
  };
  const auto p1 = cache.floorplan(key(42), build);
  const auto p2 = cache.floorplan(key(42), build);
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(p1.get(), p2.get());
}

TEST(ArtifactCacheTest, BuilderExceptionPropagatesAndCachesNothing) {
  ArtifactCache cache;
  EXPECT_THROW(
      (void)cache.bitstream(
          key(5), []() -> bitstream::Bitstream {
            throw util::DomainError{"bad build"};
          }),
      util::DomainError);
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is retryable after a failed build.
  const auto ok = cache.bitstream(key(5), [] { return makeStream(5); });
  EXPECT_EQ(ok->header().moduleId, 5u);
}

TEST(ArtifactCacheTest, ConcurrentGetOrBuildRunsBuilderOnce) {
  ArtifactCache cache;
  std::atomic<int> builds{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<const bitstream::Bitstream>> results(8);
  threads.reserve(8);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      results[t] = cache.bitstream(key(99), [&] {
        ++builds;
        // Widen the race window so waiters really pile up on the latch.
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        return makeStream(99);
      });
    });
  }
  go = true;
  for (auto& th : threads) th.join();
  EXPECT_EQ(builds.load(), 1);
  for (const auto& r : results) {
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r.get(), results[0].get());
  }
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 7u);
}

TEST(ArtifactCacheTest, MetricsSnapshotExposesCacheCounters) {
  ArtifactCache cache;
  (void)cache.bitstream(key(1), [] { return makeStream(1); });
  (void)cache.bitstream(key(1), [] { return makeStream(1); });
  const obs::MetricsSnapshot snap = cache.metricsSnapshot();
  EXPECT_EQ(snap.counters.at("exec.cache.hits"), 1u);
  EXPECT_EQ(snap.counters.at("exec.cache.misses"), 1u);
  EXPECT_TRUE(snap.counters.count("exec.cache.evictions"));
  EXPECT_TRUE(snap.counters.count("exec.cache.bytes"));
  EXPECT_TRUE(snap.counters.count("exec.cache.entries"));
  EXPECT_DOUBLE_EQ(snap.gauges.at("exec.cache.hit_rate"), 0.5);
}

TEST(ArtifactCacheTest, StreamsWithCollidingCrcAddressesStayApart) {
  // Two libraries on one floorplan, PRR and module id, differing only in
  // the module's occupancy, resolve through one cache. Their StreamKeys
  // share a CRC-32 content address; the exact key must still give each its
  // own stream, byte-equal to a private build.
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  ArtifactCache cache;
  const bitstream::StreamSource cached = cachingStreamSource(cache);
  std::vector<bitstream::StreamKey> keys;
  const bitstream::StreamSource recording =
      [&](const bitstream::StreamKey& streamKey,
          const std::function<bitstream::Bitstream()>& build) {
        keys.push_back(streamKey);
        return cached(streamKey, build);
      };
  bitstream::Library a{plan, {{1, "a", kOccupancyA}}, recording};
  bitstream::Library b{plan, {{1, "b", kOccupancyB}}, recording};
  const bitstream::Bitstream& streamA = a.modulePartial(0, 1);
  const bitstream::Bitstream& streamB = b.modulePartial(0, 1);

  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(crcContentAddress(keys[0]), crcContentAddress(keys[1]));
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_NE(&streamA, &streamB);
  EXPECT_NE(streamA.bytes(), streamB.bytes());

  bitstream::Library privateA{plan, {{1, "a", kOccupancyA}}};
  bitstream::Library privateB{plan, {{1, "b", kOccupancyB}}};
  EXPECT_EQ(streamA.bytes(), privateA.modulePartial(0, 1).bytes());
  EXPECT_EQ(streamB.bytes(), privateB.modulePartial(0, 1).bytes());
}

// One forced-miss Fig-9(b) point (dual PRR, H = 0) on a fresh cache: every
// stream it resolves is a recipe, so the cache charges kilobytes, not the
// 4.8 MB the streams encode to, and nothing on the point's path (parse,
// ICAP loads, configuration memory) materializes one.
TEST(ArtifactCacheTest, Fig9PointCachesRecipesNotBytes) {
  const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  const tasks::Workload workload =
      tasks::makeRoundRobinWorkload(registry, 24, util::Bytes{1 << 20});
  ArtifactCache cache;
  runtime::ScenarioOptions options;
  options.layout = xd1::Layout::kDualPrr;
  options.basis = model::ConfigTimeBasis::kMeasured;
  options.tControl = util::Time::microseconds(10);
  options.forceMiss = true;
  options.prepare = runtime::PrepareSource::kQueue;
  options.artifacts = &cache;
  (void)runtime::runScenario(registry, workload, options);
  EXPECT_LT(cache.metricsSnapshot().counters.at("exec.cache.bytes"), 100'000u);

  // The point's streams, resolved again: all cache hits, none holding bytes.
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  bitstream::Library library{
      plan, registry.moduleSpecs(plan.prr(0).resources(plan.device())),
      cachingStreamSource(cache)};
  const std::uint64_t misses = cache.stats().misses;
  std::vector<const bitstream::Bitstream*> streams{&library.full()};
  for (std::size_t prr = 0; prr < plan.prrCount(); ++prr) {
    for (const tasks::HwFunction& fn : registry.all()) {
      streams.push_back(&library.modulePartial(prr, fn.id));
    }
  }
  EXPECT_EQ(cache.stats().misses, misses);
  for (const bitstream::Bitstream* stream : streams) {
    ASSERT_NE(stream->recipe(), nullptr);
    EXPECT_LT(stream->residentBytes(), stream->size().count() / 100);
  }
}

}  // namespace
}  // namespace prtr::exec
