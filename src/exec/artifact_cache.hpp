#pragma once
/// \file artifact_cache.hpp
/// Exactly keyed cache for the expensive immutable artifacts every run
/// would otherwise rebuild: validated Floorplans and full / module /
/// difference partial bitstreams. This is the host-side mirror of the
/// paper's own insight (eq. 6–7): avoiding redundant configuration work is
/// where the speedup lives — here applied to the simulator harness itself,
/// whose sweep points differ only in workload parameters, never in the
/// device geometry or the streams loaded onto it.
///
/// Keys are the exact bytes fed to a KeyBuilder (device geometry, floorplan
/// spec, module id, occupancy, and flow — see bitstream::StreamKey): the
/// map hashes them and compares them in full, so two different artifacts
/// can never share a slot. Values are handed out as shared-ownership
/// handles, so eviction under the LRU byte budget never invalidates a
/// handle a running simulator still holds. getOrBuild is single-flight:
/// concurrent requests for the same key run the builder exactly once and
/// share the result (asserted by the cache test suite).

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include <atomic>

#include "bitstream/library.hpp"
#include "exec/instrument.hpp"
#include "fabric/floorplan.hpp"
#include "obs/metrics.hpp"

namespace prtr::exec {

/// Accumulates typed fields into an exact cache key: the fed bytes
/// themselves, so equal keys mean equal inputs.
class KeyBuilder {
 public:
  KeyBuilder& add(std::uint64_t value);
  KeyBuilder& add(std::string_view text);
  KeyBuilder& add(double value);

  /// Everything fed, in order.
  [[nodiscard]] std::string value() const { return bytes_; }

 private:
  std::string bytes_;
};

/// Thread-safe LRU cache of immutable artifacts with a byte budget.
class ArtifactCache {
 public:
  using Key = std::string;

  /// Default budget: 256 MiB, comfortably above one layout's full stream
  /// plus every partial of the paper's module set.
  static constexpr std::uint64_t kDefaultByteBudget = 256ull << 20;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< builder invocations (single-flight)
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;       ///< resident artifact bytes (a recipe
                                   ///< stream is its runs, not its encoding)
    std::uint64_t entries = 0;     ///< resident artifact count

    [[nodiscard]] double hitRate() const noexcept {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
  };

  explicit ArtifactCache(std::uint64_t byteBudget = kDefaultByteBudget);

  /// Returns the bitstream under `key`, invoking `build` once on a miss.
  /// Concurrent misses on the same key wait for the one in-flight build.
  [[nodiscard]] std::shared_ptr<const bitstream::Bitstream> bitstream(
      const Key& key, const std::function<bitstream::Bitstream()>& build);

  /// Same, for validated floorplans.
  [[nodiscard]] std::shared_ptr<const fabric::Floorplan> floorplan(
      const Key& key, const std::function<fabric::Floorplan()>& build);

  /// Shrinks/raises the budget, evicting immediately when over.
  void setByteBudget(std::uint64_t bytes);

  /// Drops every resident entry (outstanding handles stay valid).
  void clear();

  [[nodiscard]] Stats stats() const;

  /// Counters/gauges under exec.cache.* (hits, misses, evictions, bytes,
  /// entries, hit_rate). Host timings go to obs::hostMetrics(): every
  /// builder invocation under host.exec.cache.build_ns, and the resident
  /// bytes after every successful build under host.exec.cache.bytes.
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const;

  /// Attaches a happens-before race checker: the cache mutex and every
  /// single-flight latch are modeled as sync objects, and entry lookups /
  /// inserts / evictions are reported as reads/writes of the entry's key
  /// hash (site label "exec.cache.entry"). Null (default) = uninstrumented.
  void setRaceChecker(RaceObserver* observer) noexcept {
    if (observer != nullptr) {
      // Publish the mutex's initial (unlocked) state so the first lock's
      // acquire has a matching release instead of a spurious RC004.
      observer->release(reinterpret_cast<std::uint64_t>(&mutex_));
    }
    raceObserver_.store(observer, std::memory_order_release);
  }

  /// Process-wide cache: the store every runtime::runScenario resolves
  /// floorplans and streams through unless its options name another.
  [[nodiscard]] static ArtifactCache& global();

 private:
  struct Entry {
    std::shared_ptr<const void> artifact;
    std::uint64_t bytes = 0;
    std::list<Key>::iterator lruPosition;
  };

  /// Single-flight latch for one in-progress build.
  struct Inflight {
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    std::shared_ptr<const void> artifact;
    std::exception_ptr failure;
  };

  using ErasedBuild =
      std::function<std::pair<std::shared_ptr<const void>, std::uint64_t>()>;

  /// `slot` is the caller's key behind a one-byte artifact-type tag, so a
  /// bitstream and a floorplan fed the same KeyBuilder inputs stay apart.
  [[nodiscard]] std::shared_ptr<const void> getOrBuild(const Key& slot,
                                                       const ErasedBuild& build);
  void evictOverBudgetLocked();

  std::atomic<RaceObserver*> raceObserver_{nullptr};
  mutable std::mutex mutex_;
  std::uint64_t byteBudget_;
  std::uint64_t bytes_ = 0;  ///< guarded by mutex_
  std::list<Key> lru_;       ///< front = most recently used
  std::unordered_map<Key, Entry> entries_;
  std::unordered_map<Key, std::shared_ptr<Inflight>> inflight_;
  Stats stats_;  ///< guarded by mutex_ (bytes/entries mirrored on read)
};

/// Adapter: a bitstream::StreamSource that resolves every library build
/// through `cache`, keyed by every field of the stream's StreamKey.
[[nodiscard]] bitstream::StreamSource cachingStreamSource(ArtifactCache& cache);

}  // namespace prtr::exec
