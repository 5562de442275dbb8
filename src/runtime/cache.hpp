#pragma once
/// \file cache.hpp
/// Configuration caching over PRR slots (paper section 3.1 and refs
/// [24-27]): the PRRs act as a fully-associative cache of hardware modules.
/// A policy decides which resident module to evict when a missing module
/// must be configured. Belady's offline-optimal policy is included as the
/// upper bound for the ablation studies.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bitstream/builder.hpp"

namespace prtr::runtime {

using bitstream::ModuleId;

/// Replacement policies for the PRR module cache. The typed enum is the
/// API; the spec front end (analyze/spec.hpp) maps raw `.scn` strings
/// through cachePolicyFromString so an unknown name lints (MD011) instead
/// of throwing from this layer.
enum class CachePolicy : std::uint8_t { kLru, kLfu, kFifo, kRandom, kBelady };

/// Canonical lower-case name ("lru", "lfu", "fifo", "random", "belady").
[[nodiscard]] const char* toString(CachePolicy policy) noexcept;

/// Inverse of toString; nullopt for unknown names (never throws).
[[nodiscard]] std::optional<CachePolicy> cachePolicyFromString(
    std::string_view name) noexcept;

/// Every policy, in declaration order (drives name lists and ablations).
[[nodiscard]] std::span<const CachePolicy> allCachePolicies() noexcept;

/// Hit/miss counters shared by all policies.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;

  [[nodiscard]] std::uint64_t accesses() const noexcept { return hits + misses; }
  [[nodiscard]] double hitRatio() const noexcept {
    return accesses() ? static_cast<double>(hits) / static_cast<double>(accesses())
                      : 0.0;
  }
};

/// Fully-associative module cache with `slotCount` PRR slots.
class ConfigCache {
 public:
  explicit ConfigCache(std::size_t slotCount);
  virtual ~ConfigCache() = default;

  [[nodiscard]] std::size_t slotCount() const noexcept { return slots_.size(); }
  [[nodiscard]] std::optional<ModuleId> slotContent(std::size_t slot) const;
  [[nodiscard]] std::optional<std::size_t> lookup(ModuleId module) const;

  /// Records an access to `module`. Returns the slot on a hit, nullopt on a
  /// miss (the caller then installs after configuring).
  std::optional<std::size_t> access(ModuleId module);

  /// Chooses the slot to receive `incoming` on a miss. `avoid` (the PRR
  /// currently executing a task) is never chosen; returns nullopt when
  /// every candidate is excluded. Prefers empty slots.
  [[nodiscard]] std::optional<std::size_t> chooseSlot(
      ModuleId incoming, std::optional<std::size_t> avoid);

  /// Installs `module` into `slot` (after its configuration completed).
  void install(std::size_t slot, ModuleId module);

  /// Empties every slot (e.g. after a full reconfiguration).
  void invalidateAll();

  /// Informs the policy that the workload is about to issue call
  /// `callIndex` (0-based). Only Belady uses this, to anchor its
  /// next-use scan; the default is a no-op.
  virtual void onCallBoundary(std::size_t callIndex) { (void)callIndex; }

  [[nodiscard]] const CacheStats& stats() const noexcept { return stats_; }
  [[nodiscard]] virtual std::string policyName() const = 0;

 protected:
  /// Policy hook: pick a victim among `candidates` (all occupied, none
  /// equal to the avoided slot). Never called with an empty list.
  [[nodiscard]] virtual std::size_t pickVictim(
      const std::vector<std::size_t>& candidates, ModuleId incoming) = 0;

  /// Policy hook: a hit or install touched `slot`.
  virtual void onTouch(std::size_t slot, ModuleId module) = 0;

  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }

 private:
  std::vector<std::optional<ModuleId>> slots_;
  CacheStats stats_;
  std::uint64_t clock_ = 0;
};

/// Evicts the least recently used module.
class LruCache final : public ConfigCache {
 public:
  explicit LruCache(std::size_t slotCount);
  [[nodiscard]] std::string policyName() const override { return "LRU"; }

 protected:
  std::size_t pickVictim(const std::vector<std::size_t>& candidates,
                         ModuleId incoming) override;
  void onTouch(std::size_t slot, ModuleId module) override;

 private:
  std::vector<std::uint64_t> lastUse_;
};

/// Evicts the least frequently used module (ties: least recent).
class LfuCache final : public ConfigCache {
 public:
  explicit LfuCache(std::size_t slotCount);
  [[nodiscard]] std::string policyName() const override { return "LFU"; }

 protected:
  std::size_t pickVictim(const std::vector<std::size_t>& candidates,
                         ModuleId incoming) override;
  void onTouch(std::size_t slot, ModuleId module) override;

 private:
  std::vector<std::uint64_t> useCount_;
  std::vector<std::uint64_t> lastUse_;
};

/// Evicts in installation order.
class FifoCache final : public ConfigCache {
 public:
  explicit FifoCache(std::size_t slotCount);
  [[nodiscard]] std::string policyName() const override { return "FIFO"; }

 protected:
  std::size_t pickVictim(const std::vector<std::size_t>& candidates,
                         ModuleId incoming) override;
  void onTouch(std::size_t slot, ModuleId module) override;

 private:
  std::vector<std::uint64_t> installedAt_;
};

/// Evicts a uniformly random candidate (deterministic seed).
class RandomCache final : public ConfigCache {
 public:
  RandomCache(std::size_t slotCount, std::uint64_t seed);
  [[nodiscard]] std::string policyName() const override { return "Random"; }

 protected:
  std::size_t pickVictim(const std::vector<std::size_t>& candidates,
                         ModuleId incoming) override;
  void onTouch(std::size_t slot, ModuleId module) override;

 private:
  std::uint64_t state_;
};

/// Belady's offline-optimal policy: evicts the module whose next use is
/// farthest in the future. Needs the full future module sequence.
class BeladyCache final : public ConfigCache {
 public:
  BeladyCache(std::size_t slotCount, std::vector<ModuleId> futureSequence);
  [[nodiscard]] std::string policyName() const override { return "Belady"; }

  /// Advances the "current position" in the future sequence; call once per
  /// task call, before access().
  void advance() noexcept { ++position_; }

  /// Anchors the next-use scan at `callIndex` (executor integration).
  void onCallBoundary(std::size_t callIndex) override { position_ = callIndex; }

 protected:
  std::size_t pickVictim(const std::vector<std::size_t>& candidates,
                         ModuleId incoming) override;
  void onTouch(std::size_t slot, ModuleId module) override;

 private:
  [[nodiscard]] std::size_t nextUse(ModuleId module) const;

  std::vector<ModuleId> future_;
  std::size_t position_ = 0;
};

/// Factory by policy. `futureSequence` feeds Belady; `seed` feeds Random.
[[nodiscard]] std::unique_ptr<ConfigCache> makeCache(
    CachePolicy policy, std::size_t slotCount,
    const std::vector<ModuleId>& futureSequence = {}, std::uint64_t seed = 1);

}  // namespace prtr::runtime
