#pragma once
/// \file node.hpp
/// A Cray XD1 compute blade as seen by the reconfiguration runtime: Opteron
/// host, RapidArray interconnect (dual simplex channels), the application
/// accelerator FPGA (XC2VP50) with its four QDR-II banks, configuration
/// machinery (vendor API + ICAP controller), and a PRR floorplan.

#include <functional>
#include <memory>
#include <vector>

#include "config/manager.hpp"
#include "config/recovery.hpp"
#include "fabric/floorplan.hpp"
#include "fault/fault.hpp"
#include "fault/injector.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "xd1/memory_bank.hpp"
#include "xd1/rtcore.hpp"

namespace prtr::xd1 {

/// Which floorplan to instantiate: the paper's Figure-8 layouts (single /
/// dual PRR) or the hypothetical finer-grained quad-PRR layout used by the
/// granularity and cache-policy ablations.
enum class Layout : std::uint8_t { kSinglePrr, kDualPrr, kQuadPrr };

[[nodiscard]] const char* toString(Layout layout) noexcept;

/// Pluggable floorplan provider: given the layout and a builder for it,
/// returns a shared validated floorplan. runtime::runScenario installs a
/// memoizing source (exec::ArtifactCache) so the plan is built once per
/// layout instead of once per Node; unset, each Node builds and owns its
/// plan privately.
using FloorplanSource = std::function<std::shared_ptr<const fabric::Floorplan>(
    Layout, const std::function<fabric::Floorplan()>&)>;

/// Tunable platform parameters; defaults reproduce the paper's Cray XD1.
struct NodeConfig {
  Layout layout = Layout::kDualPrr;
  /// RapidArray raw rate per direction (paper: 1.6 GB/s) and the payload
  /// efficiency that yields the quoted 1400 MB/s application bandwidth.
  util::DataRate linkRawRate = util::DataRate::gigabytesPerSecond(1.6);
  double linkEfficiency = 0.875;
  util::Time linkLatency = util::Time::nanoseconds(500);
  config::ApiTiming apiTiming{};
  config::IcapTiming icapTiming{};
  /// Optional memoizing floorplan provider (see FloorplanSource).
  FloorplanSource floorplanSource{};
  /// Fault-injection plan; the default (all rates zero) installs no hooks
  /// and changes nothing about the simulation.
  fault::Plan faults{};
  /// Recovery policy handed to the configuration manager.
  config::RecoveryPolicy recovery{};
};

/// The assembled blade. Owns every sub-component; non-movable (components
/// hold references to each other and to the simulator).
class Node {
 public:
  Node(sim::Simulator& sim, NodeConfig config = {});
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] sim::Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] const NodeConfig& config() const noexcept { return config_; }
  [[nodiscard]] const fabric::Floorplan& floorplan() const noexcept {
    return *floorplan_;
  }
  [[nodiscard]] const fabric::Device& device() const noexcept {
    return floorplan_->device();
  }

  /// Host -> FPGA payload channel (shared with partial-bitstream download).
  [[nodiscard]] sim::SimplexLink& linkIn() noexcept { return *linkIn_; }
  [[nodiscard]] const sim::SimplexLink& linkIn() const noexcept { return *linkIn_; }
  /// FPGA -> host payload channel.
  [[nodiscard]] sim::SimplexLink& linkOut() noexcept { return *linkOut_; }
  [[nodiscard]] const sim::SimplexLink& linkOut() const noexcept {
    return *linkOut_;
  }

  [[nodiscard]] config::ConfigMemory& configMemory() noexcept { return *memory_; }
  [[nodiscard]] config::VendorApi& vendorApi() noexcept { return *api_; }
  [[nodiscard]] const config::VendorApi& vendorApi() const noexcept {
    return *api_;
  }
  [[nodiscard]] config::IcapController& icap() noexcept { return *icap_; }
  [[nodiscard]] const config::IcapController& icap() const noexcept {
    return *icap_;
  }
  [[nodiscard]] config::Manager& manager() noexcept { return *manager_; }

  /// The node's fault injector, or null when the plan injects nothing.
  [[nodiscard]] const fault::Injector* injector() const noexcept {
    return injector_.get();
  }

  [[nodiscard]] std::size_t bankCount() const noexcept { return banks_.size(); }
  [[nodiscard]] QdrBank& bank(std::size_t index) { return *banks_.at(index); }

  /// Banks wired to PRR `prrIndex`: all four in the single-PRR layout, two
  /// per region in the dual-PRR layout (paper section 4.2).
  [[nodiscard]] std::vector<std::size_t> banksFor(std::size_t prrIndex) const;

  /// Effective host<->FPGA payload bandwidth (the paper's 1400 MB/s).
  [[nodiscard]] util::DataRate ioBandwidth() const noexcept {
    return config_.linkRawRate.scaled(config_.linkEfficiency);
  }

 private:
  sim::Simulator* sim_;
  NodeConfig config_;
  std::shared_ptr<const fabric::Floorplan> floorplan_;
  std::unique_ptr<sim::SimplexLink> linkIn_;
  std::unique_ptr<sim::SimplexLink> linkOut_;
  std::unique_ptr<config::ConfigMemory> memory_;
  std::unique_ptr<config::VendorApi> api_;
  std::unique_ptr<config::IcapController> icap_;
  std::unique_ptr<config::Manager> manager_;
  std::unique_ptr<fault::Injector> injector_;
  std::vector<std::unique_ptr<QdrBank>> banks_;
};

}  // namespace prtr::xd1
