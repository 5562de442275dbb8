#include "runtime/prefetch.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace prtr::runtime {

OraclePrefetcher::OraclePrefetcher(std::vector<ModuleId> sequence,
                                   util::Time latency)
    : sequence_(std::move(sequence)), latency_(latency) {}

void OraclePrefetcher::observe(ModuleId module) {
  // Stay in lock-step with the sequence even if observations skip around.
  if (position_ < sequence_.size() && sequence_[position_] == module) {
    ++position_;
  } else {
    for (std::size_t i = position_; i < sequence_.size(); ++i) {
      if (sequence_[i] == module) {
        position_ = i + 1;
        return;
      }
    }
  }
}

std::optional<ModuleId> OraclePrefetcher::predictNext() {
  if (position_ < sequence_.size()) return sequence_[position_];
  return std::nullopt;
}

MarkovPrefetcher::MarkovPrefetcher(util::Time latency) : latency_(latency) {}

void MarkovPrefetcher::observe(ModuleId module) {
  if (last_) ++transitions_[*last_][module];
  last_ = module;
}

std::optional<ModuleId> MarkovPrefetcher::predictNext() {
  if (!last_) return std::nullopt;
  const auto it = transitions_.find(*last_);
  if (it == transitions_.end() || it->second.empty()) return std::nullopt;
  const auto best = std::max_element(
      it->second.begin(), it->second.end(),
      [](const auto& a, const auto& b) { return a.second < b.second; });
  return best->first;
}

AssociationPrefetcher::AssociationPrefetcher(std::size_t windowSize,
                                             util::Time latency)
    : windowSize_(windowSize), latency_(latency) {
  util::require(windowSize_ >= 2, "AssociationPrefetcher: window must be >= 2");
}

void AssociationPrefetcher::observe(ModuleId module) {
  for (const ModuleId predecessor : window_) {
    if (predecessor != module) ++pairCounts_[{predecessor, module}];
  }
  window_.push_back(module);
  if (window_.size() > windowSize_) window_.pop_front();
  last_ = module;
}

std::optional<ModuleId> AssociationPrefetcher::predictNext() {
  if (!last_) return std::nullopt;
  std::optional<ModuleId> best;
  std::uint64_t bestCount = 0;
  for (const auto& [pair, count] : pairCounts_) {
    if (pair.first == *last_ && count > bestCount) {
      best = pair.second;
      bestCount = count;
    }
  }
  return best;
}

const char* toString(PrefetcherKind kind) noexcept {
  switch (kind) {
    case PrefetcherKind::kNone: return "none";
    case PrefetcherKind::kOracle: return "oracle";
    case PrefetcherKind::kMarkov: return "markov";
    case PrefetcherKind::kAssociation: return "association";
  }
  return "?";
}

std::optional<PrefetcherKind> prefetcherKindFromString(
    std::string_view name) noexcept {
  for (const PrefetcherKind kind : allPrefetcherKinds()) {
    if (name == toString(kind)) return kind;
  }
  return std::nullopt;
}

std::span<const PrefetcherKind> allPrefetcherKinds() noexcept {
  static constexpr PrefetcherKind kAll[] = {
      PrefetcherKind::kNone, PrefetcherKind::kOracle, PrefetcherKind::kMarkov,
      PrefetcherKind::kAssociation};
  return kAll;
}

std::unique_ptr<Prefetcher> makePrefetcher(PrefetcherKind kind,
                                           util::Time latency,
                                           const std::vector<ModuleId>& sequence,
                                           std::size_t window) {
  switch (kind) {
    case PrefetcherKind::kNone: return std::make_unique<NonePrefetcher>();
    case PrefetcherKind::kOracle:
      return std::make_unique<OraclePrefetcher>(sequence, latency);
    case PrefetcherKind::kMarkov:
      return std::make_unique<MarkovPrefetcher>(latency);
    case PrefetcherKind::kAssociation:
      return std::make_unique<AssociationPrefetcher>(window, latency);
  }
  throw util::DomainError{"makePrefetcher: invalid PrefetcherKind"};
}

}  // namespace prtr::runtime
