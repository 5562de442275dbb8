#include "config/manager.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"

namespace prtr::config {

namespace {

const bitstream::Bitstream* streamForRung(const RecoveryStreams& streams,
                                          RecoveryRung rung) {
  switch (rung) {
    case RecoveryRung::kDifferencePartial: return streams.difference;
    case RecoveryRung::kModulePartial: return streams.modulePartial;
    case RecoveryRung::kFullPrrReload: return streams.fullPrr;
    case RecoveryRung::kFullDevice: return streams.fullDevice;
    case RecoveryRung::kNone: return nullptr;
  }
  return nullptr;
}

/// Frames of `parsed` whose memory content no longer matches the golden
/// payload (CRC compare). `subset` (sorted) restricts the scan.
std::vector<std::uint32_t> corruptedFrames(
    ConfigMemory& memory, const bitstream::ParsedStream& parsed,
    const std::vector<std::uint32_t>* subset) {
  std::vector<std::uint32_t> bad;
  parsed.forEachPayload(
      [&](std::uint32_t frame, std::span<const std::uint8_t> payload) {
        if (util::Crc32::of(memory.frameContent(frame)) !=
            util::Crc32::of(payload)) {
          bad.push_back(frame);
        }
      },
      subset);
  return bad;
}

}  // namespace

Manager::Manager(sim::Simulator& sim, const fabric::Floorplan& floorplan,
                 VendorApi& api, IcapController& icap)
    : sim_(&sim),
      floorplan_(&floorplan),
      api_(&api),
      icap_(&icap),
      loaded_(floorplan.prrCount()),
      busy_(floorplan.prrCount(), false) {}

sim::Process Manager::fullConfigure(const bitstream::Bitstream& stream) {
  ApiStatus status = ApiStatus::kOk;
  co_await api_->load(stream, status);
  if (status == ApiStatus::kTransientFault) {
    throw util::FaultError{"Manager: vendor API transient fault"};
  }
  if (status != ApiStatus::kOk) {
    throw util::ConfigError{std::string{"Manager: vendor API refused load: "} +
                            toString(status)};
  }
  loaded_.assign(loaded_.size(), std::nullopt);
  ++nFull_;
}

sim::Process Manager::loadModule(std::size_t prrIndex,
                                 bitstream::ModuleId module,
                                 const bitstream::Bitstream& stream) {
  util::require(prrIndex < loaded_.size(), "Manager: PRR index out of range");
  const fabric::FrameRange prrFrames =
      floorplan_->prr(prrIndex).frames(floorplan_->device());
  if (stream.header().firstFrame < prrFrames.first ||
      stream.header().firstFrame + stream.header().frameCount > prrFrames.end()) {
    throw util::ConfigError{
        "Manager: stream frames fall outside the target PRR"};
  }
  busy_[prrIndex] = true;
  loaded_[prrIndex] = std::nullopt;  // region contents undefined during load
  co_await icap_->load(stream);
  loaded_[prrIndex] = module;
  busy_[prrIndex] = false;
  ++nPartial_;
}

std::optional<bitstream::ModuleId> Manager::loadedModule(
    std::size_t prrIndex) const {
  util::require(prrIndex < loaded_.size(), "Manager: PRR index out of range");
  return loaded_[prrIndex];
}

std::optional<std::size_t> Manager::findModule(bitstream::ModuleId module) const {
  for (std::size_t i = 0; i < loaded_.size(); ++i) {
    if (loaded_[i] == module) return i;
  }
  return std::nullopt;
}

bool Manager::reconfiguring(std::size_t prrIndex) const {
  util::require(prrIndex < busy_.size(), "Manager: PRR index out of range");
  return busy_[prrIndex];
}

// ---- fault recovery ------------------------------------------------------

void Manager::setRecoveryTimeline(sim::Timeline* timeline) {
  recoveryTimeline_ = timeline;
  if (timeline != nullptr) recoveryLane_ = timeline->lane("recovery");
}

void Manager::recordRecoverySpan(const char* label, char glyph,
                                 util::Time start) {
  if (recoveryTimeline_ == nullptr) return;
  const util::Time end = sim_->now();
  if (end > start) {
    recoveryTimeline_->record(recoveryLane_, recoveryTimeline_->label(label),
                              glyph, start, end);
  }
}

bool Manager::shouldVerify(std::uint64_t upsetsBefore) const {
  if (!recovery_.enabled || !icap_->memory().readbackEnabled()) return false;
  switch (recovery_.verify) {
    case VerifyMode::kOff: return false;
    case VerifyMode::kAlways: return true;
    case VerifyMode::kOnFault:
      // Only pay for readback when something actually hit the device
      // during the load window — zero extra events on a healthy load.
      return icap_->memory().upsetsInjected() != upsetsBefore;
  }
  return false;
}

sim::Process Manager::verifyAndRepair(const bitstream::Bitstream& stream,
                                      bool& ok) {
  ConfigMemory& memory = icap_->memory();
  ++recoveryStats_.verifications;
  const bitstream::ParsedRef parsed = memory.parsedFor(stream);
  // Readback costs ICAP port time over the written region, like a scrub
  // pass (scrubber.hpp models the same drain rate).
  const util::Time verifyStart = sim_->now();
  co_await sim_->delay(icap_->drainTime(stream.size()));
  recoveryStats_.verifyTime += sim_->now() - verifyStart;
  recordRecoverySpan("verify", 'v', verifyStart);

  std::vector<std::uint32_t> bad = corruptedFrames(memory, *parsed, nullptr);
  if (bad.empty()) {
    ok = true;
    co_return;
  }
  ++recoveryStats_.verifyFailures;
  const std::uint32_t frameBytes =
      memory.device().geometry().encoding().frameBytes;
  // Frame-granular repair: each round rewrites only the corrupted frames,
  // so the expected number of fresh flips shrinks geometrically and the
  // loop converges even at flip rates where whole-stream retries would not.
  for (std::uint32_t round = 0;
       round < recovery_.maxRepairRounds && !bad.empty(); ++round) {
    std::sort(bad.begin(), bad.end());
    const util::Bytes repairBytes{bad.size() * std::uint64_t{frameBytes}};
    const util::Time repairStart = sim_->now();
    co_await sim_->delay(icap_->drainTime(repairBytes));
    recoveryStats_.repairTime += sim_->now() - repairStart;
    recordRecoverySpan("repair", 'x', repairStart);
    recoveryStats_.frameRepairs += memory.repairFrames(*parsed, bad);
    // Repairs ride the same fallible write path as the original load.
    icap_->applyWriteFaults(*parsed, bad);
    const util::Time recheckStart = sim_->now();
    co_await sim_->delay(icap_->drainTime(repairBytes));
    recoveryStats_.verifyTime += sim_->now() - recheckStart;
    bad = corruptedFrames(memory, *parsed, &bad);
  }
  ok = bad.empty();
}

sim::Process Manager::fullConfigureRecovering(
    const bitstream::Bitstream& stream) {
  if (!recovery_.enabled) {
    co_await fullConfigure(stream);
    co_return;
  }
  ++recoveryStats_.requests;
  for (std::uint32_t attempt = 0; attempt <= recovery_.maxRetries; ++attempt) {
    if (attempt > 0) {
      ++recoveryStats_.retries;
      const util::Time pause =
          recovery_.backoffBase *
          std::pow(recovery_.backoffFactor, static_cast<double>(attempt - 1));
      const util::Time t0 = sim_->now();
      co_await sim_->delay(pause);
      recoveryStats_.backoffTime += sim_->now() - t0;
      recordRecoverySpan("backoff", 'b', t0);
    }
    ++recoveryStats_.attempts;
    bool ok = true;
    try {
      co_await fullConfigure(stream);
    } catch (const util::FaultError&) {
      ok = false;
      ++recoveryStats_.faultsAbsorbed;
    }
    if (ok) co_return;
  }
  throw util::FaultError{"Manager: full configuration retries exhausted"};
}

sim::Process Manager::loadModuleRecovering(std::size_t prrIndex,
                                           bitstream::ModuleId module,
                                           const RecoveryStreams& streams) {
  util::require(streams.modulePartial != nullptr,
                "Manager: recovery needs at least the module-based stream");
  if (!recovery_.enabled) {
    co_await loadModule(prrIndex, module, *streams.modulePartial);
    co_return;
  }
  ++recoveryStats_.requests;
  const RecoveryRung entry = streams.difference != nullptr
                                 ? RecoveryRung::kDifferencePartial
                                 : RecoveryRung::kModulePartial;
  RecoveryRung rung = entry;
  for (;;) {
    const bitstream::Bitstream* stream = streamForRung(streams, rung);
    bool landed = false;
    if (stream != nullptr) {
      for (std::uint32_t attempt = 0;
           attempt <= recovery_.maxRetries && !landed; ++attempt) {
        if (attempt > 0) {
          ++recoveryStats_.retries;
          const util::Time pause =
              recovery_.backoffBase *
              std::pow(recovery_.backoffFactor,
                       static_cast<double>(attempt - 1));
          const util::Time t0 = sim_->now();
          co_await sim_->delay(pause);
          recoveryStats_.backoffTime += sim_->now() - t0;
          recordRecoverySpan("backoff", 'b', t0);
        }
        ++recoveryStats_.attempts;
        const std::uint64_t upsetsBefore = icap_->memory().upsetsInjected();
        bool ok = true;
        const bitstream::Bitstream* applied = stream;
        try {
          if (rung == RecoveryRung::kFullDevice) {
            co_await fullConfigure(*stream);
            ++recoveryStats_.fullDeviceFallbacks;
            // The fallback restores the baseline design; the requested
            // module still has to land in its PRR.
            applied = streams.modulePartial;
            co_await loadModule(prrIndex, module, *applied);
          } else {
            co_await loadModule(prrIndex, module, *stream);
          }
        } catch (const util::FaultError&) {
          ok = false;
          ++recoveryStats_.faultsAbsorbed;
        }
        if (ok && shouldVerify(upsetsBefore)) {
          co_await verifyAndRepair(*applied, ok);
        }
        landed = ok;
      }
    }
    if (landed) {
      ++recoveryStats_.landedOnRung[static_cast<std::size_t>(rung)];
      if (rung > recoveryStats_.degradedTo) recoveryStats_.degradedTo = rung;
      co_return;
    }
    // Rung unavailable or exhausted: climb the ladder.
    const bool rungTried = stream != nullptr;
    bool advanced = false;
    if (recovery_.ladder) {
      while (rung != RecoveryRung::kFullDevice) {
        rung = static_cast<RecoveryRung>(static_cast<std::uint8_t>(rung) + 1);
        if (streamForRung(streams, rung) != nullptr) {
          advanced = true;
          break;
        }
      }
    }
    if (!advanced) {
      throw util::FaultError{
          "Manager: recovery ladder exhausted loading module " +
          std::to_string(module) + " into PRR " + std::to_string(prrIndex)};
    }
    if (rungTried) ++recoveryStats_.escalations;
  }
}

}  // namespace prtr::config
