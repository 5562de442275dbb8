#include "config/icap_controller.hpp"

#include <algorithm>
#include <coroutine>
#include <utility>

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

/// The BRAM buffer between the host link and the drain FSM, kept as a
/// count of buffered chunks (see the header's timing-model comment): at
/// most one blocked producer, at most one blocked drain, and a two-way
/// join. Every wake is the one sim::Channel<T> and sim::WaitGroup would
/// schedule, at the same point, so the kernel sees the same events.
class IcapController::ChunkPipe {
 public:
  ChunkPipe(sim::Simulator& sim, std::size_t capacity) noexcept
      : sim_(&sim), capacity_(capacity) {}

  /// Producer side: buffers one chunk, or suspends while the buffer is
  /// full. A blocked drain takes the chunk straight away.
  [[nodiscard]] auto put() noexcept {
    struct Awaiter {
      ChunkPipe* pipe;
      bool await_ready() { return pipe->tryPut(); }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        pipe->producer_ = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Drain side: takes one chunk, or suspends while the buffer is empty. A
  /// blocked producer's chunk refills the freed slot.
  [[nodiscard]] auto get() noexcept {
    struct Awaiter {
      ChunkPipe* pipe;
      bool await_ready() { return pipe->tryGet(); }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        pipe->drain_ = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Called by each side when it has moved all its bytes; the second call
  /// wakes the joined load.
  void finish() {
    if (--running_ == 0 && loader_) {
      sim_->scheduleAfter(util::Time::zero(), loader_);
    }
  }

  /// Suspends the load until both sides have finished.
  [[nodiscard]] auto join() noexcept {
    struct Awaiter {
      ChunkPipe* pipe;
      bool await_ready() const noexcept { return pipe->running_ == 0; }
      void await_suspend(std::coroutine_handle<> h) noexcept {
        pipe->loader_ = h;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  bool tryPut() {
    if (buffered_ == capacity_) return false;
    if (drain_) {
      sim_->scheduleAfter(util::Time::zero(), std::exchange(drain_, {}));
    } else {
      ++buffered_;
    }
    return true;
  }

  bool tryGet() {
    if (buffered_ == 0) return false;
    if (producer_) {
      sim_->scheduleAfter(util::Time::zero(), std::exchange(producer_, {}));
    } else {
      --buffered_;
    }
    return true;
  }

  sim::Simulator* sim_;
  std::size_t capacity_;
  std::size_t buffered_ = 0;
  int running_ = 2;
  std::coroutine_handle<> producer_{};
  std::coroutine_handle<> drain_{};
  std::coroutine_handle<> loader_{};
};

sim::Process IcapController::produce(util::Bytes total, ChunkPipe& pipe) {
  const std::uint64_t fullChunk = timing_.chunkBytes.count();
  for (std::uint64_t remaining = total.count(); remaining > 0;) {
    const std::uint64_t chunk = std::min(remaining, fullChunk);
    co_await hostLink_->transfer(util::Bytes{chunk});
    co_await pipe.put();
    remaining -= chunk;
  }
  pipe.finish();
}

sim::Process IcapController::drain(util::Bytes total, ChunkPipe& pipe) {
  // Every chunk but a short last one is full-sized: both drain times are
  // computed once per load, so the loop does no division or rounding.
  const std::uint64_t fullChunk = timing_.chunkBytes.count();
  const util::Time fullChunkDrain = drainTime(timing_.chunkBytes);
  const util::Time lastChunkDrain =
      drainTime(util::Bytes{total.count() % fullChunk});
  for (std::uint64_t remaining = total.count(); remaining > 0;) {
    co_await pipe.get();
    const bool full = remaining >= fullChunk;
    co_await sim_->delay(full ? fullChunkDrain : lastChunkDrain);
    remaining -= full ? fullChunk : remaining;
  }
  pipe.finish();
}

util::Bytes IcapController::wireBytes(
    const bitstream::Bitstream& stream) const {
  if (!timing_.multiFrameWrite) return stream.size();
  return bitstream::planMfw(stream, memory_->device()).wireBytes;
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

  ChunkPipe pipe{*sim_, timing_.bufferChunks};
  sim_->spawn(produce(wire, pipe));
  sim_->spawn(drain(wire, pipe));
  co_await pipe.join();

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
