#pragma once
/// \file multitask.hpp
/// Multi-tasking PRTR (paper section 5: "PRTR ... is far more beneficial
/// for versatility purposes, multi-tasking applications, and hardware
/// virtualization"). Several applications submit task calls with their own
/// arrival processes; the scheduler runs them *concurrently* on the PRRs —
/// one task per region — configuring modules on demand through the shared
/// ICAP path and sharing the host links. This is the piece the sequential
/// executors cannot express: true spatial multi-tenancy of the fabric.

#include <cstdint>
#include <string>
#include <vector>

#include "bitstream/library.hpp"
#include "obs/hooks.hpp"
#include "runtime/report.hpp"
#include "tasks/workload.hpp"
#include "util/stats.hpp"
#include "xd1/node.hpp"

namespace prtr::runtime {

/// One application sharing the accelerator.
struct AppSpec {
  std::string name;
  tasks::Workload workload;        ///< its call sequence (issued in order)
  util::Time meanInterArrival;     ///< exponential inter-arrival time
};

/// Per-application outcome.
struct AppStats {
  std::string name;
  std::uint64_t completed = 0;
  util::RunningStats latencySeconds;   ///< arrival -> completion
  util::RunningStats queueingSeconds;  ///< arrival -> PRR granted
};

/// Aggregate outcome of a multitasking run.
struct MultitaskReport {
  std::vector<AppStats> apps;
  util::Time makespan;
  std::uint64_t configurations = 0;
  std::uint64_t hits = 0;
  std::uint64_t calls = 0;
  util::Time prrBusyTotal;  ///< summed busy time across PRRs
  obs::MetricsSnapshot metrics;  ///< sim/config/scheduler counters
  LoadCensus census;             ///< kept out of `metrics` (report.hpp)

  [[nodiscard]] double hitRatio() const noexcept {
    return calls ? static_cast<double>(hits) / static_cast<double>(calls) : 0.0;
  }
  /// Mean fraction of PRRs busy over the makespan.
  [[nodiscard]] double prrUtilization(std::size_t prrCount) const noexcept {
    const double horizon = makespan.toSeconds() * static_cast<double>(prrCount);
    return horizon > 0.0 ? prrBusyTotal.toSeconds() / horizon : 0.0;
  }
  [[nodiscard]] std::string toString() const;
};

/// Options for the multitasking scheduler.
struct MultitaskOptions {
  xd1::Layout layout = xd1::Layout::kDualPrr;
  util::Time tControl = util::Time::microseconds(10);
  std::uint64_t seed = 1;  ///< arrival-process seed
  /// Observability: hooks.timeline records per-PRR occupancy spans;
  /// hooks.trace exports it.
  obs::Hooks hooks{};
};

/// Runs `apps` concurrently on one blade and returns the aggregate report.
[[nodiscard]] MultitaskReport runMultitask(const tasks::FunctionRegistry& registry,
                                           const std::vector<AppSpec>& apps,
                                           const MultitaskOptions& options);

}  // namespace prtr::runtime
