#pragma once
/// \file chassis.hpp
/// Multi-blade HPRC: a Cray XD1 chassis holds up to six compute blades
/// (paper section 4), each with its own FPGA, links, and configuration
/// machinery. The chassis model partitions a workload across blades and
/// runs each blade's share on an independent simulator — embarrassingly
/// parallel across host threads, which is also how the sweep harness uses
/// it. This realizes the paper's claim that the approach "can be applied
/// to any of the available HPRC systems" at system scale.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "runtime/scenario.hpp"
#include "tasks/workload.hpp"

namespace prtr::hprc {

/// How the chassis splits one workload across blades.
enum class Partition : std::uint8_t {
  kBlock,       ///< contiguous chunks (preserves locality within a blade)
  kRoundRobin,  ///< call i goes to blade i % n (destroys locality)
};

[[nodiscard]] const char* toString(Partition partition) noexcept;

/// Aggregate result of a chassis run.
struct ChassisReport {
  std::vector<runtime::ExecutionReport> blades;
  util::Time makespan;         ///< slowest blade (chassis completion time)
  util::Time totalBladeTime;   ///< sum over blades (resource usage)
  std::uint64_t configurations = 0;
  /// Per-blade metrics merged under `bladeN.` prefixes plus chassis.*
  /// aggregates (makespan, total blade time, balance).
  obs::MetricsSnapshot metrics;

  [[nodiscard]] std::size_t bladeCount() const noexcept { return blades.size(); }
  /// Load balance: average blade time / makespan (1 = perfectly balanced).
  [[nodiscard]] double balance() const noexcept;
  [[nodiscard]] std::string toString() const;
};

/// Chassis configuration.
struct ChassisOptions {
  std::size_t blades = 6;  ///< the XD1 chassis maximum
  Partition partition = Partition::kBlock;
  runtime::ScenarioOptions scenario{};
  std::size_t threads = 0;  ///< host threads for the blade sims (0 = auto)
};

/// Splits `workload` per the partitioning strategy.
[[nodiscard]] std::vector<tasks::Workload> partitionWorkload(
    const tasks::Workload& workload, std::size_t blades, Partition partition);

/// One blade's ScenarioOptions: a hook-free, PRTR-only copy of `scenario`
/// so no caller-owned timeline/registry is shared across blade threads
/// (host timings still record: obs::hostMetrics() locks). Fault plans are
/// re-seeded per blade via fault::Plan::forNode, so multi-blade chaos runs
/// draw independent injection streams per node. Shared by runChassis and
/// the fleet layer's blade calibration.
[[nodiscard]] runtime::ScenarioOptions bladeScenarioOptions(
    const runtime::ScenarioOptions& scenario, std::uint64_t blade);

/// Runs `workload` across the chassis under PRTR and returns the aggregate.
[[nodiscard]] ChassisReport runChassis(const tasks::FunctionRegistry& registry,
                                       const tasks::Workload& workload,
                                       const ChassisOptions& options);

}  // namespace prtr::hprc
