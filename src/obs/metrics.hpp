#pragma once
/// \file metrics.hpp
/// Metrics for the simulator and runtime: counters, gauges, and histograms
/// under stable hierarchical dotted names ("icap.bytes_written",
/// "cache.lru.hits", "executor.prtr.stall_ps").
///
/// The hot path is interned, mirroring the sim kernel's SymbolTable/LaneId
/// design: a process-wide MetricTable interns each dotted name once into a
/// dense kind-typed id (CounterId / HistogramId), and a Registry is nothing
/// but flat vectors of cache-line-aligned slots indexed by those ids —
/// `add(CounterId)` is a bounds check plus one increment, no string
/// construction, no map walk. Strings materialize only at the snapshot/JSON
/// boundary, where a MetricsSnapshot freezes the registry state into sorted
/// maps (and byte-identical JSON).
///
/// A run's metrics leave it one way: as the MetricsSnapshot it returns.
/// Parallel sweeps keep each item's snapshot in its parallelMap slot and
/// fold them in index order after the barrier, so the merged snapshot is
/// byte-identical at any width.
///
/// A Registry has no by-name record calls: code that records a series
/// repeatedly (fleet events, host timings under `host.`, obs/host.hpp)
/// interns once at init and records by id. Gauges and run-end scrapes write
/// each name once, so they fill a MetricsSnapshot's maps directly.

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

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

/// Dense id of an interned counter name. Each metric kind has its own id
/// space (a counter and a histogram may share a dotted name without
/// colliding), so ids are kind-typed the way LaneId/LabelId are
/// lane/label-typed.
struct CounterId {
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFF;
  std::uint32_t value = kInvalid;
  [[nodiscard]] bool valid() const noexcept { return value != kInvalid; }
  [[nodiscard]] std::size_t index() const noexcept { return value; }
  friend bool operator==(CounterId, CounterId) = default;
};

/// Dense id of an interned histogram name.
struct HistogramId {
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFF;
  std::uint32_t value = kInvalid;
  [[nodiscard]] bool valid() const noexcept { return value != kInvalid; }
  [[nodiscard]] std::size_t index() const noexcept { return value; }
  friend bool operator==(HistogramId, HistogramId) = default;
};

/// Process-wide intern table mapping dotted metric names to dense ids,
/// one id space per metric kind. Interning is thread-safe (shared_mutex;
/// lookups of already-interned names take the reader lock) and ids are
/// stable for the life of the process, so a subsystem that records a
/// series repeatedly interns once at init and records by id forever after.
/// Names live in deques, so the references `counterName` et al. return stay
/// valid across later interning.
class MetricTable {
 public:
  /// The table every Registry in the process records against.
  [[nodiscard]] static MetricTable& global();

  /// Interns `name` as a counter (idempotent: same name, same id).
  [[nodiscard]] CounterId counter(std::string_view name);
  /// Interns `name` as a histogram.
  [[nodiscard]] HistogramId histogram(std::string_view name);

  /// Dotted name of an interned id. The id must be valid for this table.
  [[nodiscard]] const std::string& counterName(CounterId id) const;
  [[nodiscard]] const std::string& histogramName(HistogramId id) const;

 private:
  struct Pool;
  MetricTable();
  ~MetricTable();
  MetricTable(const MetricTable&) = delete;
  MetricTable& operator=(const MetricTable&) = delete;

  mutable std::shared_mutex mutex_;
  std::unique_ptr<Pool> counters_;
  std::unique_ptr<Pool> histograms_;
};

/// Frozen metric state: what a Registry held at snapshot() time, or what a
/// subsystem assembled directly. Ordered maps make rendering stable; the
/// transparent comparator lets lookups and merges probe with string_views
/// without constructing keys.
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

/// One counter slot, alone on its cache line so registries recorded on
/// different threads (fleet cells) never false-share and the hot increment
/// touches exactly one line.
struct alignas(64) CounterSlot {
  std::uint64_t value = 0;
  /// Distinguishes "never recorded" from "recorded zero": only touched
  /// slots materialize in snapshots, so interning a name process-wide does
  /// not make it appear in every registry's output.
  bool touched = false;
};
static_assert(sizeof(CounterSlot) == 64 && alignof(CounterSlot) == 64);

/// One histogram slot. The summary is larger than a line, so the slot is
/// padded to a whole number of cache lines to keep neighbors independent.
struct alignas(64) HistogramSlot {
  HistogramSummary summary;
  bool touched = false;
};
static_assert(alignof(HistogramSlot) == 64 && sizeof(HistogramSlot) % 64 == 0);

/// Mutable metric store, indexed by MetricTable ids: two flat vectors of
/// cache-line-aligned slots. Not thread-safe — one registry per thread of
/// recording (a fleet cell, the host registry behind its mutex).
class Registry {
 public:
  /// Adds `delta` to the counter under `id` (created at zero).
  void add(CounterId id, std::uint64_t delta = 1) {
    if (id.index() >= counters_.size()) growCounters(id);
    CounterSlot& slot = counters_[id.index()];
    slot.touched = true;
    slot.value += delta;
  }

  /// Records one histogram observation under `id`.
  void observe(HistogramId id, std::int64_t value) {
    if (id.index() >= histograms_.size()) growHistograms(id);
    HistogramSlot& slot = histograms_[id.index()];
    slot.touched = true;
    slot.summary.observe(value);
  }

  /// Materializes names and builds the sorted snapshot (the only point
  /// where this registry's metrics exist as strings).
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  void growCounters(CounterId id);
  void growHistograms(HistogramId id);

  std::vector<CounterSlot> counters_;
  std::vector<HistogramSlot> histograms_;
};

}  // namespace prtr::obs
