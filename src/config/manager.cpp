#include "config/manager.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "config/scrubber.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"

namespace prtr::config {

Manager::Manager(sim::Simulator& sim, const fabric::Floorplan& floorplan,
                 VendorApi& api, IcapController& icap)
    : sim_(&sim),
      floorplan_(&floorplan),
      api_(&api),
      icap_(&icap),
      loaded_(floorplan.prrCount()),
      busy_(floorplan.prrCount(), false) {}

sim::Process Manager::fullConfigure(const bitstream::Bitstream& stream) {
  return recovery_.enabled ? recoverFull(stream) : apiLoad(stream);
}

sim::Process Manager::loadModule(std::size_t prrIndex,
                                 bitstream::ModuleId module,
                                 const bitstream::Bitstream& stream,
                                 RecoveryStreams fallbacks) {
  return recovery_.enabled ? recoverModule(prrIndex, module, stream, fallbacks)
                           : icapLoad(prrIndex, module, stream);
}

sim::Process Manager::apiLoad(const bitstream::Bitstream& stream) {
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

sim::Process Manager::icapLoad(std::size_t prrIndex,
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

  std::vector<std::uint32_t> bad = verifyRegion(memory, stream);
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
    bad = verifyRegion(memory, stream, &bad);
  }
  ok = bad.empty();
}

sim::Process Manager::backoff(std::uint32_t attempt) {
  ++recoveryStats_.retries;
  const util::Time pause =
      recovery_.backoffBase *
      std::pow(recovery_.backoffFactor, static_cast<double>(attempt - 1));
  const util::Time t0 = sim_->now();
  co_await sim_->delay(pause);
  recoveryStats_.backoffTime += sim_->now() - t0;
  recordRecoverySpan("backoff", 'b', t0);
}

sim::Process Manager::recoverFull(const bitstream::Bitstream& stream) {
  ++recoveryStats_.requests;
  for (std::uint32_t attempt = 0; attempt <= recovery_.maxRetries; ++attempt) {
    if (attempt > 0) co_await backoff(attempt);
    ++recoveryStats_.attempts;
    try {
      co_await apiLoad(stream);
      co_return;
    } catch (const util::FaultError&) {
      ++recoveryStats_.faultsAbsorbed;
    }
  }
  throw util::FaultError{"Manager: full configuration retries exhausted"};
}

sim::Process Manager::recoverModule(std::size_t prrIndex,
                                    bitstream::ModuleId module,
                                    const bitstream::Bitstream& stream,
                                    RecoveryStreams fallbacks) {
  ++recoveryStats_.requests;
  // The ladder, cheapest rung first; the module partial is the entry rung.
  const std::array<std::pair<RecoveryRung, const bitstream::Bitstream*>, 3>
      ladder{{{RecoveryRung::kModulePartial, &stream},
              {RecoveryRung::kFullPrrReload, fallbacks.fullPrr},
              {RecoveryRung::kFullDevice, fallbacks.fullDevice}}};
  for (std::size_t step = 0; step < ladder.size(); ++step) {
    const RecoveryRung rung = ladder[step].first;
    const bitstream::Bitstream* rungStream = ladder[step].second;
    if (rungStream == nullptr) continue;
    if (step > 0) {
      // The previous rung is exhausted: climb, if the policy allows it.
      if (!recovery_.ladder) break;
      ++recoveryStats_.escalations;
    }
    bool landed = false;
    for (std::uint32_t attempt = 0;
         attempt <= recovery_.maxRetries && !landed; ++attempt) {
      if (attempt > 0) co_await backoff(attempt);
      ++recoveryStats_.attempts;
      const std::uint64_t upsetsBefore = icap_->memory().upsetsInjected();
      bool ok = true;
      try {
        if (rung == RecoveryRung::kFullDevice) {
          co_await apiLoad(*rungStream);
          ++recoveryStats_.fullDeviceFallbacks;
          // The fallback restores the baseline design; the requested
          // module still has to land in its PRR.
          co_await icapLoad(prrIndex, module, stream);
        } else {
          co_await icapLoad(prrIndex, module, *rungStream);
        }
      } catch (const util::FaultError&) {
        ok = false;
        ++recoveryStats_.faultsAbsorbed;
      }
      if (ok && shouldVerify(upsetsBefore)) {
        co_await verifyAndRepair(
            rung == RecoveryRung::kFullDevice ? stream : *rungStream, ok);
      }
      landed = ok;
    }
    if (landed) {
      ++recoveryStats_.landedOnRung[static_cast<std::size_t>(rung)];
      if (rung > recoveryStats_.degradedTo) recoveryStats_.degradedTo = rung;
      co_return;
    }
  }
  throw util::FaultError{"Manager: recovery ladder exhausted loading module " +
                         std::to_string(module) + " into PRR " +
                         std::to_string(prrIndex)};
}

}  // namespace prtr::config
