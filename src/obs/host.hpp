#pragma once
/// \file host.hpp
/// Host-side cost of producing the simulated numbers: wall-clock timings
/// (scenario phases, pool tasks, cache and bitstream builds, sweep points,
/// chassis blades, fleet runs) and the pool/cache backlog samples, recorded
/// by name as `host.*` histograms. Recording is always on and lands in one
/// process-wide MetricsSnapshot behind one mutex, so any thread may record
/// and a snapshot may be taken at any time. Scopes open per phase, task, or
/// build, never per simulated event.
///
/// Host numbers are wall-clock and therefore never reach simulated outputs
/// (ScenarioResult::metrics, BenchReport --json documents, traces);
/// `--profile <path>` is their one exit (BenchReport::finish and
/// prtrsim_cli write hostMetrics().snapshot() there).

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>

#include "obs/metrics.hpp"

namespace prtr::obs {

/// The process-wide host histograms.
class HostMetrics {
 public:
  /// Records one observation under `name` (nanoseconds for `_ns` series).
  void observe(std::string_view name, std::int64_t value);

  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mutex_;
  MetricsSnapshot recorded_;
};

/// The host histograms every HostTimer records into (never destroyed: pool
/// workers draining at exit may still record).
[[nodiscard]] HostMetrics& hostMetrics();

/// RAII wall-clock timer: records construction-to-destruction nanoseconds
/// under `name` into hostMetrics(). `name` must outlive the timer (every
/// caller passes a string literal).
class HostTimer {
 public:
  explicit HostTimer(std::string_view name) noexcept
      : name_(name), start_(std::chrono::steady_clock::now()) {}
  HostTimer(const HostTimer&) = delete;
  HostTimer& operator=(const HostTimer&) = delete;
  ~HostTimer() {
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    hostMetrics().observe(
        name_, std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
                   .count());
  }

 private:
  std::string_view name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace prtr::obs
