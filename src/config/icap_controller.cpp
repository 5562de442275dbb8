#include "config/icap_controller.hpp"

#include <algorithm>

#include "bitstream/compress.hpp"
#include "bitstream/parser.hpp"
#include "util/error.hpp"

namespace prtr::config {

IcapController::IcapController(sim::Simulator& sim, ConfigMemory& memory,
                               sim::SimplexLink& hostInputLink, Port port,
                               IcapTiming timing)
    : sim_(&sim),
      memory_(&memory),
      hostLink_(&hostInputLink),
      port_(std::move(port)),
      timing_(timing),
      icapBusy_(sim, 1) {
  util::require(port_.internal(), "IcapController: needs an internal port");
  util::require(timing_.wordBytes > 0 && timing_.chunkBytes.count() > 0 &&
                    timing_.bufferChunks > 0,
                "IcapController: invalid timing parameters");
}

util::Time IcapController::drainTime(util::Bytes size) const noexcept {
  const std::uint64_t words =
      (size.count() + timing_.wordBytes - 1) / timing_.wordBytes;
  const std::uint64_t cycles =
      words * (timing_.icapCyclesPerWord + timing_.fsmOverheadCyclesPerWord);
  return port_.clock().cycles(cycles);
}

util::DataRate IcapController::effectiveThroughput() const noexcept {
  const double bytesPerCycle =
      static_cast<double>(timing_.wordBytes) /
      static_cast<double>(timing_.icapCyclesPerWord +
                          timing_.fsmOverheadCyclesPerWord);
  return util::DataRate::bytesPerSecond(port_.clock().hertz() * bytesPerCycle);
}

sim::Process IcapController::produce(util::Bytes total,
                                     sim::Channel<std::uint64_t>& buffer,
                                     sim::WaitGroup& wg) {
  std::uint64_t remaining = total.count();
  while (remaining > 0) {
    const std::uint64_t chunk = std::min(remaining, timing_.chunkBytes.count());
    co_await hostLink_->transfer(util::Bytes{chunk});
    co_await buffer.put(chunk);
    remaining -= chunk;
  }
  wg.done();
}

sim::Process IcapController::drain(util::Bytes total,
                                   sim::Channel<std::uint64_t>& buffer,
                                   sim::WaitGroup& wg) {
  // Every chunk but a short last one is full-sized: time it once per load.
  const std::uint64_t fullChunk = timing_.chunkBytes.count();
  const util::Time fullChunkDrain = drainTime(timing_.chunkBytes);
  std::uint64_t remaining = total.count();
  while (remaining > 0) {
    const std::uint64_t chunk = co_await buffer.get();
    co_await sim_->delay(chunk == fullChunk ? fullChunkDrain
                                            : drainTime(util::Bytes{chunk}));
    remaining -= chunk;
  }
  wg.done();
}

util::Bytes IcapController::wireBytes(const bitstream::Bitstream& stream) {
  if (!timing_.multiFrameWrite) return stream.size();
  const auto it = wireBytesCache_.find(&stream);
  if (it != wireBytesCache_.end()) return it->second;
  const bitstream::MfwPlan plan =
      bitstream::planMfw(stream, memory_->device());
  return wireBytesCache_.emplace(&stream, plan.wireBytes).first->second;
}

sim::Process IcapController::load(const bitstream::Bitstream& stream) {
  if (!stream.isPartial()) {
    throw util::ConfigError{
        "IcapController: full streams must go through the external port"};
  }
  // Validate before touching the hardware; an invalid stream fails fast.
  const bitstream::ParsedRef parsed = memory_->parsedFor(stream);
  const util::Bytes bytes = wireBytes(stream);

  // A fault decision is drawn up front (deterministic: one draw per load in
  // event order), but takes effect mid-pipeline: the producer/drain children
  // only ever see the truncated byte count, so they never throw from a
  // detached coroutine.
  std::optional<IcapFault> fault;
  if (faultHook_) fault = faultHook_(stream);
  util::Bytes wire = bytes;
  if (fault && fault->abort) {
    const double fraction = std::clamp(fault->completedFraction, 0.0, 1.0);
    wire = util::Bytes{std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(fraction *
                                      static_cast<double>(bytes.count())))};
  }

  const util::Time queued = sim_->now();
  co_await icapBusy_.acquire();
  contention_ += sim_->now() - queued;
  sim::ScopedPermit permit{icapBusy_};

  sim::Channel<std::uint64_t> buffer{*sim_, timing_.bufferChunks};
  sim::WaitGroup wg{*sim_};
  wg.add(2);
  sim_->spawn(produce(wire, buffer, wg));
  sim_->spawn(drain(wire, buffer, wg));
  co_await wg.wait();

  if (fault && fault->abort) {
    // The truncated stream never reaches configuration memory.
    bytesWritten_ += wire.count();
    ++abortedLoads_;
    std::rethrow_exception(fault->abort);
  }

  memory_->applyPartial(*parsed);
  ++loads_;
  bytesWritten_ += bytes.count();
  if (writeFaultHook_) writeFaultHook_(*parsed, nullptr);
}

}  // namespace prtr::config
