#pragma once
/// \file scrubber.hpp
/// Configuration readback and SEU scrubbing — the reliability application
/// of partial reconfiguration. Radiation-induced single-event upsets (SEUs)
/// silently flip configuration bits; a scrubber periodically reads regions
/// back through the configuration port, compares them against their golden
/// streams, and repairs corrupted frames with a partial reconfiguration.
/// Readback and repair both cost configuration-port time, so scrubbing is
/// one more consumer of the bandwidth the paper's model prices.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "bitstream/format.hpp"
#include "config/icap_controller.hpp"
#include "config/memory.hpp"
#include "fabric/region.hpp"
#include "sim/process.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace prtr::config {

/// Frames written by `golden` (the stream that configured them) whose
/// current content differs from its payload byte for byte, or only those
/// among `subset` (sorted) when it is given (ConfigMemory::corruptedFrames).
[[nodiscard]] inline std::vector<std::uint32_t> verifyRegion(
    ConfigMemory& memory, const bitstream::Bitstream& golden,
    const std::vector<std::uint32_t>* subset = nullptr) {
  return memory.corruptedFrames(*memory.parsedFor(golden), subset);
}

/// Scrubbing statistics.
struct ScrubStats {
  std::uint64_t scrubPasses = 0;
  std::uint64_t framesChecked = 0;
  std::uint64_t upsetsDetected = 0;
  std::uint64_t repairs = 0;
  util::Time readbackTime;
  util::Time repairTime;
  /// Blind-window approximation of accumulated exposure: half a scrub
  /// period per detected upset (the expected wait when injection times are
  /// unknown). Always reported.
  util::Time approxExposure;
  /// Actual accumulated injection->repair latency, for the detected upsets
  /// whose injection timestamp an attached UpsetInjector recorded. Compare
  /// against approxExposure to judge the blind-window model.
  util::Time observedExposure;
  /// Detected corrupted frames with a known injection timestamp.
  std::uint64_t observedUpsets = 0;
  util::Time busyTime() const noexcept { return readbackTime + repairTime; }
};

class UpsetInjector;

/// Periodic scrubber over one region; runs as a simulator process.
class Scrubber {
 public:
  /// `golden` must outlive the scrubber and match `region`.
  Scrubber(sim::Simulator& sim, ConfigMemory& memory, IcapController& icap,
           const fabric::Device& device, const bitstream::Bitstream& golden,
           util::Time period);

  /// Coroutine: scrub every `period` for `passes` passes — read back the
  /// region (port time), compare, and repair via a partial reload when
  /// any frame is corrupted.
  [[nodiscard]] sim::Process run(std::uint64_t passes);

  /// Attaches the upset source so repairs can report the *actual*
  /// injection->repair latency (ScrubStats::observedExposure) instead of
  /// only the blind-window approximation. Null detaches.
  void observeInjector(UpsetInjector* injector) noexcept {
    injector_ = injector;
  }

  [[nodiscard]] const ScrubStats& stats() const noexcept { return stats_; }

 private:
  sim::Simulator* sim_;
  ConfigMemory* memory_;
  IcapController* icap_;
  const bitstream::Bitstream* golden_;
  util::Time period_;
  UpsetInjector* injector_ = nullptr;
  ScrubStats stats_;
};

/// Poisson SEU injector over a frame range; runs as a simulator process.
class UpsetInjector {
 public:
  UpsetInjector(sim::Simulator& sim, ConfigMemory& memory,
                fabric::FrameRange range, util::Time meanInterArrival,
                std::uint64_t seed);

  /// Coroutine: injects upsets until `horizon` (absolute sim time).
  [[nodiscard]] sim::Process run(util::Time horizon);

  [[nodiscard]] std::uint64_t injected() const noexcept { return injected_; }

  /// Injection time of the earliest still-unrepaired upset in `frame`,
  /// if one was recorded.
  [[nodiscard]] std::optional<util::Time> injectionTime(
      std::uint32_t frame) const;

  /// Called by the scrubber once `frame` has been repaired; forgets the
  /// pending timestamp so the next upset starts a fresh window.
  void acknowledgeRepair(std::uint32_t frame) noexcept;

 private:
  sim::Simulator* sim_;
  ConfigMemory* memory_;
  fabric::FrameRange range_;
  util::Time meanInterArrival_;
  util::Rng rng_;
  std::uint64_t injected_ = 0;
  /// Earliest pending injection time per corrupted frame.
  std::map<std::uint32_t, util::Time> pending_;
};

}  // namespace prtr::config
