#pragma once
/// \file prefetch.hpp
/// Configuration pre-fetching (paper refs [24-27] and section 3.1): a
/// prefetcher observes the call stream and predicts the next module so its
/// configuration can overlap the current task's execution. Each algorithm
/// is characterized by its decision latency (T_decision) and, empirically,
/// by the hit ratio H it achieves on a workload — exactly the two
/// parameters of the analytical model.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "bitstream/builder.hpp"
#include "util/units.hpp"

namespace prtr::runtime {

using bitstream::ModuleId;

/// Prediction algorithms for configuration pre-fetching. The typed enum is
/// the API; `.scn` strings go through prefetcherKindFromString so unknown
/// names lint (MD012) instead of throwing from this layer.
enum class PrefetcherKind : std::uint8_t { kNone, kOracle, kMarkov,
                                           kAssociation };

/// Canonical lower-case name ("none", "oracle", "markov", "association").
[[nodiscard]] const char* toString(PrefetcherKind kind) noexcept;

/// Inverse of toString; nullopt for unknown names (never throws).
[[nodiscard]] std::optional<PrefetcherKind> prefetcherKindFromString(
    std::string_view name) noexcept;

/// Every kind, in declaration order.
[[nodiscard]] std::span<const PrefetcherKind> allPrefetcherKinds() noexcept;

/// Interface for configuration pre-fetching algorithms.
class Prefetcher {
 public:
  virtual ~Prefetcher() = default;

  /// Algorithm decision latency (the model's T_decision).
  [[nodiscard]] virtual util::Time decisionLatency() const = 0;

  /// Observes that `module` was just called (training signal).
  virtual void observe(ModuleId module) = 0;

  /// Predicts the module of the *next* call, or nullopt for "no guess".
  [[nodiscard]] virtual std::optional<ModuleId> predictNext() = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Never predicts: the paper's experimental setting ("our hypothetical
/// configuration pre-fetching always misses", H = 0, T_decision = 0).
class NonePrefetcher final : public Prefetcher {
 public:
  [[nodiscard]] util::Time decisionLatency() const override {
    return util::Time::zero();
  }
  void observe(ModuleId) override {}
  [[nodiscard]] std::optional<ModuleId> predictNext() override {
    return std::nullopt;
  }
  [[nodiscard]] std::string name() const override { return "none"; }
};

/// Knows the exact call sequence (upper bound on prediction quality).
class OraclePrefetcher final : public Prefetcher {
 public:
  OraclePrefetcher(std::vector<ModuleId> sequence, util::Time latency);

  [[nodiscard]] util::Time decisionLatency() const override { return latency_; }
  void observe(ModuleId module) override;
  [[nodiscard]] std::optional<ModuleId> predictNext() override;
  [[nodiscard]] std::string name() const override { return "oracle"; }

 private:
  std::vector<ModuleId> sequence_;
  std::size_t position_ = 0;
  util::Time latency_;
};

/// First-order Markov predictor: argmax transition frequency from the most
/// recently observed module.
class MarkovPrefetcher final : public Prefetcher {
 public:
  explicit MarkovPrefetcher(util::Time latency);

  [[nodiscard]] util::Time decisionLatency() const override { return latency_; }
  void observe(ModuleId module) override;
  [[nodiscard]] std::optional<ModuleId> predictNext() override;
  [[nodiscard]] std::string name() const override { return "markov"; }

 private:
  std::map<ModuleId, std::map<ModuleId, std::uint64_t>> transitions_;
  std::optional<ModuleId> last_;
  util::Time latency_;
};

/// Association-rule-mining style predictor (paper ref [26]): counts module
/// co-occurrence inside a sliding window and predicts the highest-count
/// partner of the current module.
class AssociationPrefetcher final : public Prefetcher {
 public:
  AssociationPrefetcher(std::size_t windowSize, util::Time latency);

  [[nodiscard]] util::Time decisionLatency() const override { return latency_; }
  void observe(ModuleId module) override;
  [[nodiscard]] std::optional<ModuleId> predictNext() override;
  [[nodiscard]] std::string name() const override { return "association"; }

 private:
  std::deque<ModuleId> window_;
  std::size_t windowSize_;
  std::map<std::pair<ModuleId, ModuleId>, std::uint64_t> pairCounts_;
  std::optional<ModuleId> last_;
  util::Time latency_;
};

/// Factory by kind. `sequence` feeds the oracle; `window` the association
/// miner.
[[nodiscard]] std::unique_ptr<Prefetcher> makePrefetcher(
    PrefetcherKind kind, util::Time latency,
    const std::vector<ModuleId>& sequence = {}, std::size_t window = 8);

}  // namespace prtr::runtime
