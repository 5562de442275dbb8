#include "obs/host.hpp"

namespace prtr::obs {

void HostMetrics::observe(std::string_view name, std::int64_t value) {
  const std::scoped_lock lock{mutex_};
  auto it = recorded_.histograms.find(name);
  if (it == recorded_.histograms.end()) {
    it = recorded_.histograms.emplace(name, HistogramSummary{}).first;
  }
  it->second.observe(value);
}

MetricsSnapshot HostMetrics::snapshot() const {
  const std::scoped_lock lock{mutex_};
  return recorded_;
}

HostMetrics& hostMetrics() {
  static HostMetrics* const metrics = new HostMetrics;
  return *metrics;
}

}  // namespace prtr::obs
