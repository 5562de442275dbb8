#include "obs/host.hpp"

namespace prtr::obs {

void HostMetrics::observe(HistogramId id, std::int64_t value) {
  const std::scoped_lock lock{mutex_};
  registry_.observe(id, value);
}

MetricsSnapshot HostMetrics::snapshot() const {
  const std::scoped_lock lock{mutex_};
  return registry_.snapshot();
}

HostMetrics& hostMetrics() {
  static HostMetrics* const metrics = new HostMetrics;
  return *metrics;
}

}  // namespace prtr::obs
