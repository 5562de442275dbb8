#pragma once
/// \file metrics.hpp
/// Metrics for the simulator and runtime: counters, gauges, and histograms
/// under stable hierarchical dotted names ("icap.bytes_written",
/// "cache.lru.hits", "executor.prtr.stall_ps").
///
/// The hot path is interned, mirroring the sim kernel's SymbolTable/LaneId
/// design (PR 7): a process-wide MetricTable interns each dotted name once
/// into a dense kind-typed id (CounterId / GaugeId / HistogramId), and a
/// Registry is nothing but flat vectors of cache-line-aligned slots indexed
/// by those ids — `add(CounterId)` is a bounds check plus one increment, no
/// string construction, no map walk. Strings materialize only at the
/// snapshot/JSON boundary, where a MetricsSnapshot freezes the registry
/// state into the same sorted maps (and byte-identical JSON) as always.
///
/// Parallel sweeps record through a ShardedRegistry: one Registry per pool
/// worker (slot 0 for non-pool threads), located through a thread-slot
/// provider the exec layer registers, and merged at the barrier by a
/// deterministic ordered tree reduction — byte-equal output at any width.
///
/// A Registry has no by-name record calls: code that records a series
/// repeatedly (fleet events, sweep counters, host timings under `host.`,
/// obs/host.hpp) interns once at init and records by id. A run-end scrape
/// writes each name once, so it fills a MetricsSnapshot's maps directly.

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
/// space (a counter and a gauge may share a dotted name without colliding),
/// so ids are kind-typed the way LaneId/LabelId are lane/label-typed.
struct CounterId {
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFF;
  std::uint32_t value = kInvalid;
  [[nodiscard]] bool valid() const noexcept { return value != kInvalid; }
  [[nodiscard]] std::size_t index() const noexcept { return value; }
  friend bool operator==(CounterId, CounterId) = default;
};

/// Dense id of an interned gauge name.
struct GaugeId {
  static constexpr std::uint32_t kInvalid = 0xFFFF'FFFF;
  std::uint32_t value = kInvalid;
  [[nodiscard]] bool valid() const noexcept { return value != kInvalid; }
  [[nodiscard]] std::size_t index() const noexcept { return value; }
  friend bool operator==(GaugeId, GaugeId) = default;
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
  /// Interns `name` as a gauge.
  [[nodiscard]] GaugeId gauge(std::string_view name);
  /// Interns `name` as a histogram.
  [[nodiscard]] HistogramId histogram(std::string_view name);

  /// Dotted name of an interned id. The id must be valid for this table.
  [[nodiscard]] const std::string& counterName(CounterId id) const;
  [[nodiscard]] const std::string& gaugeName(GaugeId id) const;
  [[nodiscard]] const std::string& histogramName(HistogramId id) const;

 private:
  struct Pool;
  MetricTable();
  ~MetricTable();
  MetricTable(const MetricTable&) = delete;
  MetricTable& operator=(const MetricTable&) = delete;

  mutable std::shared_mutex mutex_;
  std::unique_ptr<Pool> counters_;
  std::unique_ptr<Pool> gauges_;
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

  /// Move-merge for temporaries (reports absorbing per-run snapshots, the
  /// shard tree reduction): with an empty prefix the maps are spliced via
  /// node extraction — and moved wholesale into an empty snapshot — so no
  /// key string is ever copied.
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

/// One counter slot, alone on its cache line so per-worker registries never
/// false-share and the hot increment touches exactly one line.
struct alignas(64) CounterSlot {
  std::uint64_t value = 0;
  /// Distinguishes "never recorded" from "recorded zero": only touched
  /// slots materialize in snapshots, so interning a name process-wide does
  /// not make it appear in every registry's output.
  bool touched = false;
};
static_assert(sizeof(CounterSlot) == 64 && alignof(CounterSlot) == 64);

/// One gauge slot (same layout discipline as CounterSlot).
struct alignas(64) GaugeSlot {
  double value = 0.0;
  bool touched = false;
};
static_assert(sizeof(GaugeSlot) == 64 && alignof(GaugeSlot) == 64);

/// One histogram slot. The summary is larger than a line, so the slot is
/// padded to a whole number of cache lines to keep neighbors independent.
struct alignas(64) HistogramSlot {
  HistogramSummary summary;
  bool touched = false;
};
static_assert(alignof(HistogramSlot) == 64 && sizeof(HistogramSlot) % 64 == 0);

/// Mutable metric store, indexed by MetricTable ids: three flat vectors of
/// cache-line-aligned slots. Not thread-safe — one registry per thread (see
/// ShardedRegistry); parallel sweeps merge snapshots afterwards.
class Registry {
 public:
  /// Adds `delta` to the counter under `id` (created at zero).
  void add(CounterId id, std::uint64_t delta = 1) {
    if (id.index() >= counters_.size()) growCounters(id);
    CounterSlot& slot = counters_[id.index()];
    touchedCounters_ += !slot.touched;
    slot.touched = true;
    slot.value += delta;
  }

  /// Sets the gauge under `id`.
  void set(GaugeId id, double value) {
    if (id.index() >= gauges_.size()) growGauges(id);
    GaugeSlot& slot = gauges_[id.index()];
    touchedGauges_ += !slot.touched;
    slot.touched = true;
    slot.value = value;
  }

  /// Records one histogram observation under `id`.
  void observe(HistogramId id, std::int64_t value) {
    if (id.index() >= histograms_.size()) growHistograms(id);
    HistogramSlot& slot = histograms_[id.index()];
    touchedHistograms_ += !slot.touched;
    slot.touched = true;
    slot.summary.observe(value);
  }

  // The PR 4/7 string shims (add/set/observe by name) are gone: intern
  // once via MetricTable and record by id. obs_metrics_test.cpp pins the
  // removal with a negative-compile check.

  /// Folds a finished snapshot into this registry (prefixing as in
  /// MetricsSnapshot::merge). This is how per-run snapshots reach a
  /// caller-provided hooks sink. Interns at the boundary; not deprecated —
  /// snapshots are the string domain.
  void absorb(const MetricsSnapshot& snapshot, const std::string& prefix = {});

  /// Like absorb, but folds only the additive series (counters and
  /// histograms), skipping gauges. Shards absorb per-point snapshots with
  /// this: which shard a sweep point lands on is schedule-dependent, and
  /// additive series merge to the same total regardless — the property that
  /// keeps sharded output byte-identical at any width.
  void absorbAdditive(const MetricsSnapshot& snapshot,
                      const std::string& prefix = {});

  /// Materializes names and builds the sorted snapshot (the only point
  /// where this registry's metrics exist as strings).
  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// snapshot(), then resets every slot — the vectors keep their capacity,
  /// so a reused registry records the next run without reallocating.
  [[nodiscard]] MetricsSnapshot takeSnapshot();

  [[nodiscard]] bool empty() const noexcept {
    return touchedCounters_ == 0 && touchedGauges_ == 0 &&
           touchedHistograms_ == 0;
  }
  void clear();

 private:
  void growCounters(CounterId id);
  void growGauges(GaugeId id);
  void growHistograms(HistogramId id);

  std::vector<CounterSlot> counters_;
  std::vector<GaugeSlot> gauges_;
  std::vector<HistogramSlot> histograms_;
  std::size_t touchedCounters_ = 0;
  std::size_t touchedGauges_ = 0;
  std::size_t touchedHistograms_ = 0;
};

/// Thread-slot provider: maps the calling thread to a stable small shard
/// index. The exec layer registers one that returns workerIndex + 1 on pool
/// worker threads and 0 elsewhere, so a sweep's recording threads never
/// share a shard. Unregistered, every thread maps to slot 0.
using ThreadSlotFn = std::size_t (*)() noexcept;
void setThreadSlotProvider(ThreadSlotFn fn) noexcept;
[[nodiscard]] std::size_t currentThreadSlot() noexcept;

/// A bank of per-thread Registry shards for contention-free parallel
/// recording. `local()` resolves the calling thread's shard through the
/// thread-slot provider; shards grow on demand (under a writer lock, with
/// stable addresses) and are merged at the barrier by an ordered pairwise
/// tree reduction over shard index — a fixed fold shape, so the merged
/// snapshot is byte-identical no matter how many threads recorded or how
/// work was scheduled across them, provided recording is additive (see
/// Registry::absorbAdditive).
class ShardedRegistry {
 public:
  explicit ShardedRegistry(std::size_t shards = 1);

  /// The calling thread's shard (provider slot; grows the bank on demand).
  [[nodiscard]] Registry& local();

  /// Shard by explicit index (grows the bank on demand).
  [[nodiscard]] Registry& shard(std::size_t index);

  [[nodiscard]] std::size_t shardCount() const;
  [[nodiscard]] bool empty() const;
  void clear();

  /// Tree-reduction of every shard's snapshot, in shard order.
  [[nodiscard]] MetricsSnapshot mergedSnapshot() const;

  /// mergedSnapshot() via takeSnapshot(): shards are reset, capacity kept.
  [[nodiscard]] MetricsSnapshot takeMerged();

 private:
  Registry& shardLocked(std::size_t index);

  mutable std::shared_mutex mutex_;
  std::vector<std::unique_ptr<Registry>> shards_;
};

/// Ordered pairwise tree reduction over `leaves` (index order, moving every
/// merge). The fold shape depends only on leaves.size(), so the result is
/// deterministic; for additive series it equals the left-to-right fold.
[[nodiscard]] MetricsSnapshot reduceSnapshots(
    std::vector<MetricsSnapshot> leaves);

}  // namespace prtr::obs
