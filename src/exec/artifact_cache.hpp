#pragma once
/// \file artifact_cache.hpp
/// Content-addressed cache for the expensive immutable artifacts a sweep
/// rebuilds at every point today: validated Floorplans and full / module /
/// difference partial bitstreams. This is the host-side mirror of the
/// paper's own insight (eq. 6–7): avoiding redundant configuration work is
/// where the speedup lives — here applied to the simulator harness itself,
/// whose sweep points differ only in workload parameters, never in the
/// device geometry or the streams loaded onto it.
///
/// Keys are content addresses built with KeyBuilder (CRC-32 over device
/// geometry, floorplan spec, module id, and flow — see
/// bitstream::StreamKey). Values are handed out as shared-ownership
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
#include <string_view>
#include <unordered_map>

#include <atomic>

#include "bitstream/library.hpp"
#include "exec/instrument.hpp"
#include "fabric/floorplan.hpp"
#include "obs/metrics.hpp"
#include "util/crc32.hpp"

namespace prtr::exec {

/// Accumulates typed fields into a CRC-32-based content address.
class KeyBuilder {
 public:
  KeyBuilder& add(std::uint64_t value) noexcept;
  KeyBuilder& add(std::string_view text) noexcept;
  KeyBuilder& add(double value) noexcept;

  /// CRC-32 of everything fed, widened with the fed byte count so keys of
  /// different lengths never collide trivially.
  [[nodiscard]] std::uint64_t value() const noexcept;

 private:
  util::Crc32 crc_;
  std::uint64_t fed_ = 0;
};

/// Thread-safe LRU cache of immutable artifacts with a byte budget.
class ArtifactCache {
 public:
  using Key = std::uint64_t;

  /// Default budget: 256 MiB, comfortably above one layout's full stream
  /// plus every partial of the paper's module set.
  static constexpr std::uint64_t kDefaultByteBudget = 256ull << 20;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< builder invocations (single-flight)
    std::uint64_t evictions = 0;
    std::uint64_t bytes = 0;       ///< resident artifact bytes
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
      Key key, const std::function<bitstream::Bitstream()>& build);

  /// Same, for validated floorplans.
  [[nodiscard]] std::shared_ptr<const fabric::Floorplan> floorplan(
      Key key, const std::function<fabric::Floorplan()>& build);

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
  /// (site label "exec.cache.entry"). Null (default) = uninstrumented.
  void setRaceChecker(RaceObserver* observer) noexcept {
    if (observer != nullptr) {
      // Publish the mutex's initial (unlocked) state so the first lock's
      // acquire has a matching release instead of a spurious RC004.
      observer->release(reinterpret_cast<std::uint64_t>(&mutex_));
    }
    raceObserver_.store(observer, std::memory_order_release);
  }

  /// Process-wide cache shared by benches and CLI runs.
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

  [[nodiscard]] std::shared_ptr<const void> getOrBuild(Key key,
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
/// through `cache`, keyed by the stream's content address (StreamKey::hash).
[[nodiscard]] bitstream::StreamSource cachingStreamSource(ArtifactCache& cache);

}  // namespace prtr::exec
