#pragma once
/// \file manager.hpp
/// Configuration manager: tracks which module is loaded in each PRR and
/// routes load requests to the right mechanism — the vendor API for full
/// streams, the ICAP controller for partial streams — under its recovery
/// policy (recovery.hpp).

#include <cstdint>
#include <optional>
#include <vector>

#include "bitstream/library.hpp"
#include "config/icap_controller.hpp"
#include "config/recovery.hpp"
#include "config/vendor_api.hpp"
#include "fabric/floorplan.hpp"
#include "sim/symbols.hpp"

namespace prtr::sim {
class Timeline;
}  // namespace prtr::sim

namespace prtr::config {

/// Per-PRR loaded-module bookkeeping plus load routing: one full load and
/// one module load, each applying recoveryPolicy() itself.
class Manager {
 public:
  Manager(sim::Simulator& sim, const fabric::Floorplan& floorplan,
          VendorApi& api, IcapController& icap);

  /// Full configuration through the vendor API. Resets PRR bookkeeping
  /// (every region now holds the initial design). With the recovery policy
  /// disabled this returns the plain load process itself: it throws
  /// util::ConfigError when the API refuses the stream and util::FaultError
  /// on a transient fault. With the policy enabled, transient faults are
  /// retried with exponential backoff, and util::FaultError is thrown once
  /// the retries are exhausted.
  [[nodiscard]] sim::Process fullConfigure(const bitstream::Bitstream& stream);

  /// Loads `module`'s `stream` (its module partial) into PRR `prrIndex` via
  /// the ICAP. With the recovery policy disabled this returns the plain load
  /// process itself. With it enabled the load retries with exponential
  /// backoff per ladder rung, read-back-verifies with frame-granular repair,
  /// and escalates from `stream` to `fallbacks.fullPrr`, then to
  /// `fallbacks.fullDevice` (null rungs are skipped). It lands on some rung
  /// (recorded in recoveryStats) or throws util::FaultError once the ladder
  /// is exhausted.
  [[nodiscard]] sim::Process loadModule(std::size_t prrIndex,
                                        bitstream::ModuleId module,
                                        const bitstream::Bitstream& stream,
                                        RecoveryStreams fallbacks = {});

  /// Module currently loaded in PRR `prrIndex` (nullopt = baseline/initial).
  [[nodiscard]] std::optional<bitstream::ModuleId> loadedModule(
      std::size_t prrIndex) const;

  /// PRR currently holding `module`, if any.
  [[nodiscard]] std::optional<std::size_t> findModule(
      bitstream::ModuleId module) const;

  /// True while a partial load into `prrIndex` is in flight; logic in that
  /// region must not be used (only *other* regions keep running — that is
  /// the point of PRTR).
  [[nodiscard]] bool reconfiguring(std::size_t prrIndex) const;

  [[nodiscard]] std::uint64_t fullConfigCount() const noexcept { return nFull_; }
  [[nodiscard]] std::uint64_t partialConfigCount() const noexcept {
    return nPartial_;
  }
  [[nodiscard]] const fabric::Floorplan& floorplan() const noexcept {
    return *floorplan_;
  }

  // ---- fault recovery (recovery.hpp, src/fault) ------------------------

  void setRecoveryPolicy(const RecoveryPolicy& policy) noexcept {
    recovery_ = policy;
  }
  [[nodiscard]] const RecoveryPolicy& recoveryPolicy() const noexcept {
    return recovery_;
  }
  [[nodiscard]] const RecoveryStats& recoveryStats() const noexcept {
    return recoveryStats_;
  }
  /// Optional timeline receiving "recovery" lane spans (backoff / verify /
  /// repair intervals). Null disables tracing.
  void setRecoveryTimeline(sim::Timeline* timeline);

 private:
  [[nodiscard]] sim::Process apiLoad(const bitstream::Bitstream& stream);
  [[nodiscard]] sim::Process icapLoad(std::size_t prrIndex,
                                      bitstream::ModuleId module,
                                      const bitstream::Bitstream& stream);
  [[nodiscard]] sim::Process recoverFull(const bitstream::Bitstream& stream);
  [[nodiscard]] sim::Process recoverModule(std::size_t prrIndex,
                                           bitstream::ModuleId module,
                                           const bitstream::Bitstream& stream,
                                           RecoveryStreams fallbacks);
  /// The pause before retry `attempt` (1-based) of one rung.
  [[nodiscard]] sim::Process backoff(std::uint32_t attempt);
  [[nodiscard]] sim::Process verifyAndRepair(const bitstream::Bitstream& stream,
                                             bool& ok);
  [[nodiscard]] bool shouldVerify(std::uint64_t upsetsBefore) const;
  void recordRecoverySpan(const char* label, char glyph, util::Time start);

  sim::Simulator* sim_;
  const fabric::Floorplan* floorplan_;
  VendorApi* api_;
  IcapController* icap_;
  std::vector<std::optional<bitstream::ModuleId>> loaded_;
  std::vector<bool> busy_;
  std::uint64_t nFull_ = 0;
  std::uint64_t nPartial_ = 0;
  RecoveryPolicy recovery_{};
  RecoveryStats recoveryStats_{};
  sim::Timeline* recoveryTimeline_ = nullptr;
  sim::LaneId recoveryLane_{};
};

}  // namespace prtr::config
