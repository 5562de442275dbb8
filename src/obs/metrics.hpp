#pragma once
/// \file metrics.hpp
/// Metrics for the simulator and runtime: counters, gauges, and histograms
/// under stable hierarchical dotted names ("icap.bytes_written",
/// "cache.lru.hits", "executor.prtr.stall_ps").
///
/// MetricsSnapshot is the one metrics type. A run's metrics leave it as the
/// snapshot it returns: each layer writes its series by name into sorted
/// maps once, at run end, so rendering is stable and the JSON is
/// byte-identical for bit-identical runs. Code that counts per event keeps
/// plain members (a fleet cell's counters, a HistogramSummary per series)
/// and names them only when it writes its snapshot; host timings record by
/// name into one snapshot behind a mutex (obs/host.hpp).
///
/// Parallel sweeps keep each item's snapshot in its parallelMap slot and
/// fold them in index order after the barrier, so the merged snapshot is
/// byte-identical at any width.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "util/json.hpp"

namespace prtr::obs {

/// Summary statistics of one histogram series. Values are recorded as
/// int64 (times in picoseconds, sizes in bytes) so sums stay exact. Besides
/// the exact count/sum/min/max, the summary keeps log2-magnitude bucket
/// counts so p50/p95/p99 can be estimated deterministically from recorded
/// bounds alone — two bit-identical runs produce identical estimates, and
/// merge/diff stay exact (buckets add and subtract elementwise).
struct HistogramSummary {
  /// Bucket b holds values whose magnitude has bit-width b (bucket 0 is
  /// exactly zero; negative values clamp into bucket 0). 64-bit values need
  /// bit-widths 0..64.
  static constexpr std::size_t kBucketCount = 65;

  std::uint64_t count = 0;
  std::int64_t sum = 0;
  std::int64_t min = 0;  ///< meaningful only when count > 0
  std::int64_t max = 0;
  std::array<std::uint64_t, kBucketCount> buckets{};

  [[nodiscard]] double mean() const noexcept {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Bucket index of one observation (see kBucketCount).
  [[nodiscard]] static std::size_t bucketIndex(std::int64_t value) noexcept {
    if (value <= 0) return 0;
    return static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(value)));
  }

  /// Records one observation.
  void observe(std::int64_t value) noexcept {
    if (count == 0) {
      min = value;
      max = value;
    } else {
      min = std::min(min, value);
      max = std::max(max, value);
    }
    ++count;
    sum += value;
    ++buckets[bucketIndex(value)];
  }

  /// Deterministic quantile estimate for q in [0, 1]: linear interpolation
  /// inside the log2 bucket holding the q-th observation, clamped to the
  /// exact [min, max] bounds. Returns 0 when the histogram is empty.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] double p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] double p95() const noexcept { return quantile(0.95); }
  [[nodiscard]] double p99() const noexcept { return quantile(0.99); }

  /// Folds `from` into this summary (count/sum/buckets add, bounds widen).
  void fold(const HistogramSummary& from) noexcept;

  friend bool operator==(const HistogramSummary&,
                         const HistogramSummary&) = default;
};

/// Frozen metric state, assembled by name. Ordered maps make rendering
/// stable; the transparent comparator lets lookups and merges probe with
/// string_views without constructing keys.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t, std::less<>> counters;
  std::map<std::string, double, std::less<>> gauges;
  std::map<std::string, HistogramSummary, std::less<>> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Counter value under `name`, or `fallback` when absent.
  [[nodiscard]] std::uint64_t counterOr(std::string_view name,
                                        std::uint64_t fallback = 0) const;

  /// Gauge value under `name`, or nullopt when absent.
  [[nodiscard]] std::optional<double> gauge(std::string_view name) const;

  /// Folds `other` into this snapshot, prefixing every incoming name with
  /// `prefix` ("prtr." turns "icap.loads" into "prtr.icap.loads").
  /// Counters and histogram summaries add; gauges overwrite. One scratch
  /// key string is reused across the whole fold — no per-metric prefix
  /// reallocation.
  void merge(const MetricsSnapshot& other, const std::string& prefix = {});

  /// Move-merge for temporaries (index-order folds of per-item snapshots):
  /// with an empty prefix the maps are spliced via node extraction — and
  /// moved wholesale into an empty snapshot — so no key string is ever
  /// copied. A prefixed move-merge rewrites every key, so it is the copy
  /// merge.
  void merge(MetricsSnapshot&& other, const std::string& prefix = {});

  /// Counter/histogram deltas since `earlier` (this - earlier); gauges keep
  /// their current values. Names absent from `earlier` count from zero.
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& earlier) const;

  /// "name value" per line, counters then gauges then histograms.
  [[nodiscard]] std::string toString() const;

  /// {"counters":{...},"gauges":{...},"histograms":{...}}.
  void writeJson(util::json::Writer& w) const;
  [[nodiscard]] std::string toJson() const;

  friend bool operator==(const MetricsSnapshot&,
                         const MetricsSnapshot&) = default;
};

}  // namespace prtr::obs
