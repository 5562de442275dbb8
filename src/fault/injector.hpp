#pragma once
/// \file injector.hpp
/// Attaches a fault::Plan to the simulation via the fault hooks exposed by
/// sim::SimplexLink, config::IcapController and config::VendorApi.
///
/// One Injector instance serves one node (one Simulator); all fault
/// decisions consume its single util::Rng in simulation event order, which
/// is what makes chaos runs reproducible regardless of how many scenarios
/// the exec pool runs concurrently. The injector must outlive the objects
/// it is attached to no later than their last use (xd1::Node owns it).

#include <array>
#include <cstdint>

#include "config/icap_controller.hpp"
#include "config/vendor_api.hpp"
#include "fault/fault.hpp"
#include "sim/link.hpp"
#include "util/rng.hpp"

namespace prtr::fault {

/// Seed-driven fault source; install with the attach() overloads.
class Injector {
 public:
  explicit Injector(const Plan& plan);

  /// Installs the link-stall decorator (no-op when the stall rate is 0).
  void attach(sim::SimplexLink& link);
  /// Installs the ICAP decorators: transfer timeouts / aborts ahead of the
  /// pipeline, word flips on everything the port writes.
  void attach(config::IcapController& icap);
  /// Installs the transient-rejection decorator on the vendor API.
  void attach(config::VendorApi& api);

  [[nodiscard]] const Plan& plan() const noexcept { return plan_; }

  /// Faults injected so far, per kind / total.
  [[nodiscard]] std::uint64_t injected(FaultKind kind) const noexcept {
    return injected_[static_cast<std::size_t>(kind)];
  }
  [[nodiscard]] std::uint64_t totalInjected() const noexcept;

 private:
  /// Arrival-model gate for one eligible event of a kind with probability
  /// `rate`; `counter` feeds the fixed schedule.
  [[nodiscard]] bool due(double rate, std::uint64_t& counter);
  /// Poisson-distributed count with the given mean (deterministic, uses
  /// the plan RNG).
  [[nodiscard]] std::uint64_t poisson(double mean);
  /// Flips bits in the frames just written (`frames` null = whole stream).
  void corruptWrites(config::ConfigMemory& memory,
                     const bitstream::ParsedStream& parsed,
                     const std::vector<std::uint32_t>* frames);

  Plan plan_;
  util::Rng rng_;
  std::array<std::uint64_t, kFaultKindCount> injected_{};
  std::uint64_t stallCounter_ = 0;
  std::uint64_t timeoutCounter_ = 0;
  std::uint64_t abortCounter_ = 0;
  std::uint64_t flipCounter_ = 0;
  std::uint64_t rejectCounter_ = 0;
};

}  // namespace prtr::fault
