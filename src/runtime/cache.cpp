#include "runtime/cache.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"

namespace prtr::runtime {

ConfigCache::ConfigCache(std::size_t slotCount) : slots_(slotCount) {
  util::require(slotCount >= 1, "ConfigCache: need at least one slot");
}

std::optional<ModuleId> ConfigCache::slotContent(std::size_t slot) const {
  util::require(slot < slots_.size(), "ConfigCache: slot out of range");
  return slots_[slot];
}

std::optional<std::size_t> ConfigCache::lookup(ModuleId module) const {
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s] == module) return s;
  }
  return std::nullopt;
}

std::optional<std::size_t> ConfigCache::access(ModuleId module) {
  ++clock_;
  const auto slot = lookup(module);
  if (slot) {
    ++stats_.hits;
    onTouch(*slot, module);
  } else {
    ++stats_.misses;
  }
  return slot;
}

std::optional<std::size_t> ConfigCache::chooseSlot(
    ModuleId incoming, std::optional<std::size_t> avoid) {
  // Prefer an empty slot.
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!slots_[s].has_value() && s != avoid) return s;
  }
  std::vector<std::size_t> candidates;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (s != avoid) candidates.push_back(s);
  }
  if (candidates.empty()) return std::nullopt;
  const std::size_t victim = pickVictim(candidates, incoming);
  ++stats_.evictions;
  return victim;
}

void ConfigCache::install(std::size_t slot, ModuleId module) {
  util::require(slot < slots_.size(), "ConfigCache: slot out of range");
  slots_[slot] = module;
  onTouch(slot, module);
}

void ConfigCache::invalidateAll() {
  std::fill(slots_.begin(), slots_.end(), std::nullopt);
}

// ---- LRU -------------------------------------------------------------

LruCache::LruCache(std::size_t slotCount)
    : ConfigCache(slotCount), lastUse_(slotCount, 0) {}

std::size_t LruCache::pickVictim(const std::vector<std::size_t>& candidates,
                                 ModuleId) {
  return *std::min_element(candidates.begin(), candidates.end(),
                           [&](std::size_t a, std::size_t b) {
                             return lastUse_[a] < lastUse_[b];
                           });
}

void LruCache::onTouch(std::size_t slot, ModuleId) { lastUse_[slot] = clock(); }

// ---- LFU -------------------------------------------------------------

LfuCache::LfuCache(std::size_t slotCount)
    : ConfigCache(slotCount), useCount_(slotCount, 0), lastUse_(slotCount, 0) {}

std::size_t LfuCache::pickVictim(const std::vector<std::size_t>& candidates,
                                 ModuleId) {
  return *std::min_element(
      candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
        if (useCount_[a] != useCount_[b]) return useCount_[a] < useCount_[b];
        return lastUse_[a] < lastUse_[b];
      });
}

void LfuCache::onTouch(std::size_t slot, ModuleId module) {
  // A fresh install resets the frequency so stale popularity does not pin
  // a slot forever.
  if (slotContent(slot) != module) useCount_[slot] = 0;
  ++useCount_[slot];
  lastUse_[slot] = clock();
}

// ---- FIFO ------------------------------------------------------------

FifoCache::FifoCache(std::size_t slotCount)
    : ConfigCache(slotCount), installedAt_(slotCount, 0) {}

std::size_t FifoCache::pickVictim(const std::vector<std::size_t>& candidates,
                                  ModuleId) {
  return *std::min_element(candidates.begin(), candidates.end(),
                           [&](std::size_t a, std::size_t b) {
                             return installedAt_[a] < installedAt_[b];
                           });
}

void FifoCache::onTouch(std::size_t slot, ModuleId module) {
  if (slotContent(slot) != module) installedAt_[slot] = clock();
}

// ---- Random ----------------------------------------------------------

RandomCache::RandomCache(std::size_t slotCount, std::uint64_t seed)
    : ConfigCache(slotCount), state_(seed | 1) {}

std::size_t RandomCache::pickVictim(const std::vector<std::size_t>& candidates,
                                    ModuleId) {
  // xorshift64* step; deterministic across platforms.
  state_ ^= state_ >> 12;
  state_ ^= state_ << 25;
  state_ ^= state_ >> 27;
  const std::uint64_t r = state_ * 0x2545F4914F6CDD1DULL;
  return candidates[r % candidates.size()];
}

void RandomCache::onTouch(std::size_t, ModuleId) {}

// ---- Belady ----------------------------------------------------------

BeladyCache::BeladyCache(std::size_t slotCount, std::vector<ModuleId> futureSequence)
    : ConfigCache(slotCount), future_(std::move(futureSequence)) {}

std::size_t BeladyCache::nextUse(ModuleId module) const {
  for (std::size_t i = position_; i < future_.size(); ++i) {
    if (future_[i] == module) return i;
  }
  return std::numeric_limits<std::size_t>::max();
}

std::size_t BeladyCache::pickVictim(const std::vector<std::size_t>& candidates,
                                    ModuleId) {
  return *std::max_element(candidates.begin(), candidates.end(),
                           [&](std::size_t a, std::size_t b) {
                             const auto ca = slotContent(a);
                             const auto cb = slotContent(b);
                             const std::size_t na = ca ? nextUse(*ca) : 0;
                             const std::size_t nb = cb ? nextUse(*cb) : 0;
                             return na < nb;
                           });
}

void BeladyCache::onTouch(std::size_t, ModuleId) {}

// ---- factory ----------------------------------------------------------

const char* toString(CachePolicy policy) noexcept {
  switch (policy) {
    case CachePolicy::kLru: return "lru";
    case CachePolicy::kLfu: return "lfu";
    case CachePolicy::kFifo: return "fifo";
    case CachePolicy::kRandom: return "random";
    case CachePolicy::kBelady: return "belady";
  }
  return "?";
}

std::optional<CachePolicy> cachePolicyFromString(
    std::string_view name) noexcept {
  for (const CachePolicy policy : allCachePolicies()) {
    if (name == toString(policy)) return policy;
  }
  return std::nullopt;
}

std::span<const CachePolicy> allCachePolicies() noexcept {
  static constexpr CachePolicy kAll[] = {
      CachePolicy::kLru, CachePolicy::kLfu, CachePolicy::kFifo,
      CachePolicy::kRandom, CachePolicy::kBelady};
  return kAll;
}

std::unique_ptr<ConfigCache> makeCache(CachePolicy policy,
                                       std::size_t slotCount,
                                       const std::vector<ModuleId>& futureSequence,
                                       std::uint64_t seed) {
  switch (policy) {
    case CachePolicy::kLru: return std::make_unique<LruCache>(slotCount);
    case CachePolicy::kLfu: return std::make_unique<LfuCache>(slotCount);
    case CachePolicy::kFifo: return std::make_unique<FifoCache>(slotCount);
    case CachePolicy::kRandom:
      return std::make_unique<RandomCache>(slotCount, seed);
    case CachePolicy::kBelady:
      return std::make_unique<BeladyCache>(slotCount, futureSequence);
  }
  throw util::DomainError{"makeCache: invalid CachePolicy"};
}

}  // namespace prtr::runtime
