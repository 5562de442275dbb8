#include "config/scrubber.hpp"

#include "util/error.hpp"

namespace prtr::config {

Scrubber::Scrubber(sim::Simulator& sim, ConfigMemory& memory,
                   IcapController& icap, const fabric::Device& /*device*/,
                   const bitstream::Bitstream& golden, util::Time period)
    : sim_(&sim),
      memory_(&memory),
      icap_(&icap),
      golden_(&golden),
      period_(period) {
  util::require(period > util::Time::zero(), "Scrubber: period must be positive");
  util::require(golden.isPartial(), "Scrubber: golden stream must be partial");
}

sim::Process Scrubber::run(std::uint64_t passes) {
  for (std::uint64_t pass = 0; pass < passes; ++pass) {
    co_await sim_->delay(period_);
    ++stats_.scrubPasses;

    // Readback: the region's frames stream out of the port at the same
    // effective rate writes stream in.
    const util::Bytes readBytes = golden_->size();
    const util::Time readStart = sim_->now();
    co_await sim_->delay(icap_->drainTime(readBytes));
    stats_.readbackTime += sim_->now() - readStart;
    stats_.framesChecked += golden_->header().frameCount;

    const auto corrupted = verifyRegion(*memory_, *golden_);
    if (!corrupted.empty()) {
      stats_.upsetsDetected += corrupted.size();
      // Blind-window model: without injection timestamps the best estimate
      // of exposure is half a scrub period per detected upset.
      stats_.approxExposure +=
          period_ * (0.5 * static_cast<double>(corrupted.size()));
      // Repair: reload the golden stream (module-based partial; frame-
      // granular repair would be cheaper but the full-region reload is
      // what the paper's controller can do).
      const util::Time repairStart = sim_->now();
      co_await icap_->load(*golden_);
      stats_.repairTime += sim_->now() - repairStart;
      ++stats_.repairs;
      if (injector_ != nullptr) {
        // The injector knows when each pending upset actually landed, so
        // report the true injection->repair latency alongside the model.
        for (const std::uint32_t frame : corrupted) {
          if (const auto injected = injector_->injectionTime(frame)) {
            stats_.observedExposure += sim_->now() - *injected;
            ++stats_.observedUpsets;
            injector_->acknowledgeRepair(frame);
          }
        }
      }
    }
  }
}

UpsetInjector::UpsetInjector(sim::Simulator& sim, ConfigMemory& memory,
                             fabric::FrameRange range,
                             util::Time meanInterArrival, std::uint64_t seed)
    : sim_(&sim),
      memory_(&memory),
      range_(range),
      meanInterArrival_(meanInterArrival),
      rng_(seed) {
  util::require(range.count > 0, "UpsetInjector: empty frame range");
  util::require(meanInterArrival > util::Time::zero(),
                "UpsetInjector: mean inter-arrival must be positive");
}

sim::Process UpsetInjector::run(util::Time horizon) {
  const std::uint32_t frameBytes =
      memory_->device().geometry().encoding().frameBytes;
  for (;;) {
    const util::Time wait =
        util::Time::seconds(rng_.exponential(meanInterArrival_.toSeconds()));
    if (sim_->now() + wait > horizon) co_return;
    co_await sim_->delay(wait);
    const auto frame = static_cast<std::uint32_t>(
        range_.first + rng_.below(range_.count));
    const auto offset = static_cast<std::uint32_t>(rng_.below(frameBytes));
    const auto bit = static_cast<std::uint8_t>(1u << rng_.below(8));
    memory_->injectUpset(frame, offset, bit);
    ++injected_;
    pending_.emplace(frame, sim_->now());  // keeps the earliest pending hit
  }
}

std::optional<util::Time> UpsetInjector::injectionTime(
    std::uint32_t frame) const {
  const auto it = pending_.find(frame);
  if (it == pending_.end()) return std::nullopt;
  return it->second;
}

void UpsetInjector::acknowledgeRepair(std::uint32_t frame) noexcept {
  pending_.erase(frame);
}

}  // namespace prtr::config
