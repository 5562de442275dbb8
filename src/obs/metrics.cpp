#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <utility>

namespace prtr::obs {

void HistogramSummary::fold(const HistogramSummary& from) noexcept {
  if (from.count == 0) return;
  if (count == 0) {
    *this = from;
    return;
  }
  count += from.count;
  sum += from.sum;
  min = std::min(min, from.min);
  max = std::max(max, from.max);
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    buckets[b] += from.buckets[b];
  }
}

double HistogramSummary::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the q-th observation, 1-based (nearest-rank definition).
  const auto rank = static_cast<std::uint64_t>(std::max(
      1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kBucketCount; ++b) {
    if (buckets[b] == 0) continue;
    if (seen + buckets[b] < rank) {
      seen += buckets[b];
      continue;
    }
    // Bucket b spans [2^(b-1), 2^b - 1] (bucket 0 is exactly zero).
    // Interpolate by the rank's position inside the bucket, then clamp to
    // the exact recorded bounds.
    double lo = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b) - 1);
    double hi = b == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(b)) - 1.0;
    const double position =
        static_cast<double>(rank - seen - 1) /
        static_cast<double>(buckets[b]);
    double estimate = lo + (hi - lo) * position;
    estimate = std::clamp(estimate, static_cast<double>(min),
                          static_cast<double>(max));
    return estimate;
  }
  return static_cast<double>(max);
}

// ---------------------------------------------------------------------------
// MetricsSnapshot

std::uint64_t MetricsSnapshot::counterOr(std::string_view name,
                                         std::uint64_t fallback) const {
  const auto it = counters.find(name);
  return it != counters.end() ? it->second : fallback;
}

std::optional<double> MetricsSnapshot::gauge(std::string_view name) const {
  const auto it = gauges.find(name);
  return it != gauges.end() ? std::optional<double>{it->second} : std::nullopt;
}

namespace {

/// Reusable prefixed-key scratch: one string whose prefix is written once,
/// with each metric's name appended and truncated in turn.
class PrefixedKey {
 public:
  explicit PrefixedKey(const std::string& prefix) : scratch_{prefix} {}

  std::string_view operator()(const std::string& name) {
    scratch_.resize(prefixLength_);
    scratch_ += name;
    return scratch_;
  }

 private:
  std::string scratch_;
  std::size_t prefixLength_ = scratch_.size();
};

}  // namespace

void MetricsSnapshot::merge(const MetricsSnapshot& other,
                            const std::string& prefix) {
  PrefixedKey key{prefix};
  for (const auto& [name, value] : other.counters) {
    const std::string_view k = key(name);
    if (const auto it = counters.find(k); it != counters.end()) {
      it->second += value;
    } else {
      counters.emplace(k, value);
    }
  }
  for (const auto& [name, value] : other.gauges) {
    const std::string_view k = key(name);
    if (const auto it = gauges.find(k); it != gauges.end()) {
      it->second = value;
    } else {
      gauges.emplace(k, value);
    }
  }
  for (const auto& [name, value] : other.histograms) {
    const std::string_view k = key(name);
    if (const auto it = histograms.find(k); it != histograms.end()) {
      it->second.fold(value);
    } else {
      histograms.emplace(k, value);
    }
  }
}

void MetricsSnapshot::merge(MetricsSnapshot&& other,
                            const std::string& prefix) {
  if (!prefix.empty()) {
    merge(other, prefix);
    other = MetricsSnapshot{};
    return;
  }
  if (empty()) {
    *this = std::move(other);
    other = MetricsSnapshot{};
    return;
  }
  // Splice nodes: keys (and histogram payloads) move, never reallocate.
  while (!other.counters.empty()) {
    auto node = other.counters.extract(other.counters.begin());
    if (const auto it = counters.find(node.key()); it != counters.end()) {
      it->second += node.mapped();
    } else {
      counters.insert(std::move(node));
    }
  }
  while (!other.gauges.empty()) {
    auto node = other.gauges.extract(other.gauges.begin());
    if (const auto it = gauges.find(node.key()); it != gauges.end()) {
      it->second = node.mapped();
    } else {
      gauges.insert(std::move(node));
    }
  }
  while (!other.histograms.empty()) {
    auto node = other.histograms.extract(other.histograms.begin());
    if (const auto it = histograms.find(node.key()); it != histograms.end()) {
      it->second.fold(node.mapped());
    } else {
      histograms.insert(std::move(node));
    }
  }
}

MetricsSnapshot MetricsSnapshot::diff(const MetricsSnapshot& earlier) const {
  MetricsSnapshot out;
  for (const auto& [name, value] : counters) {
    out.counters[name] = value - earlier.counterOr(name);
  }
  out.gauges = gauges;
  for (const auto& [name, value] : histograms) {
    HistogramSummary delta = value;
    const auto it = earlier.histograms.find(name);
    if (it != earlier.histograms.end()) {
      delta.count -= it->second.count;
      delta.sum -= it->second.sum;
      for (std::size_t b = 0; b < HistogramSummary::kBucketCount; ++b) {
        delta.buckets[b] -= it->second.buckets[b];
      }
      // min/max are not invertible over a window; keep the later values.
    }
    out.histograms[name] = delta;
  }
  return out;
}

std::string MetricsSnapshot::toString() const {
  std::ostringstream os;
  for (const auto& [name, value] : counters) os << name << ' ' << value << '\n';
  for (const auto& [name, value] : gauges) {
    os << name << ' ' << util::json::formatNumber(value) << '\n';
  }
  for (const auto& [name, value] : histograms) {
    os << name << " count=" << value.count << " sum=" << value.sum
       << " min=" << value.min << " max=" << value.max
       << " p50=" << util::json::formatNumber(value.p50())
       << " p95=" << util::json::formatNumber(value.p95()) << '\n';
  }
  return os.str();
}

void MetricsSnapshot::writeJson(util::json::Writer& w) const {
  w.beginObject();
  w.key("counters").beginObject();
  for (const auto& [name, value] : counters) w.key(name).value(value);
  w.endObject();
  w.key("gauges").beginObject();
  for (const auto& [name, value] : gauges) w.key(name).value(value);
  w.endObject();
  w.key("histograms").beginObject();
  for (const auto& [name, value] : histograms) {
    w.key(name).beginObject();
    w.key("count").value(value.count);
    w.key("sum").value(value.sum);
    w.key("min").value(value.min);
    w.key("max").value(value.max);
    w.key("p50").value(value.p50());
    w.key("p95").value(value.p95());
    w.key("p99").value(value.p99());
    w.endObject();
  }
  w.endObject();
  w.endObject();
}

std::string MetricsSnapshot::toJson() const {
  std::ostringstream os;
  util::json::Writer w{os};
  writeJson(w);
  return os.str();
}

}  // namespace prtr::obs
