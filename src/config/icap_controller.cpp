#include "config/icap_controller.hpp"

#include <algorithm>
#include <coroutine>
#include <exception>
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

/// One load's BRAM buffer pipeline (see the header's timing-model comment):
/// the producer and the drain as one state machine over kept events. The
/// buffer is a count of chunks; at most one side is blocked on it at a
/// time. Each side has at most one event in flight, kept here or parked in
/// the kernel under its lane. The join takes the drain's slot once both
/// sides have finished.
class IcapController::Pipeline {
 public:
  Pipeline(IcapController& icap, util::Bytes wire)
      : sim_(icap.sim_),
        link_(icap.hostLink_),
        capacity_(icap.timing_.bufferChunks),
        fullChunk_(icap.timing_.chunkBytes.count()),
        fullDrain_(icap.drainTime(icap.timing_.chunkBytes)),
        lastDrain_(icap.drainTime(util::Bytes{wire.count() % fullChunk_})),
        produceLeft_(wire.count()),
        drainLeft_(wire.count()) {
    // The producer lane's handle, taken as a parent awaiting it would take
    // it, without resuming it: the kernel or the load lane resumes it.
    lanes_[kProducer] = producerLane_.await_suspend(std::noop_coroutine());
    // A producer and a drain spawned in this order: their first steps are
    // two same-instant events, the producer's first.
    keep(producer_, sim_->now(), Step::kAdvance);
    keep(drain_, sim_->now(), Step::kDrained);
  }

  /// The load lane's awaitable: co_await it until done(). It dispatches
  /// every next kept event in place and suspends on the first one that is
  /// not next, or while every side waits on the other or on the link.
  [[nodiscard]] auto loadLane() noexcept { return LaneAwaiter{this, kLoad}; }

  /// True once the join has run: both sides moved all their bytes.
  [[nodiscard]] bool done() const noexcept { return joined_; }

  /// The exception an HT-in transfer aborted the producer with, if any.
  [[nodiscard]] std::exception_ptr failure() const noexcept {
    return failure_;
  }

 private:
  enum LaneId : std::uint8_t { kLoad, kProducer };
  enum class Step : std::uint8_t {
    kAdvance,      ///< producer: the buffer took its chunk; start the next
    kTransferred,  ///< producer: its uncontended transfer completed
    kGot,          ///< drain: a put handed it a chunk; start draining it
    kDrained,      ///< drain: its chunk is in ICAP; take the next
    kJoin,         ///< drain slot, load lane: both sides finished
  };
  /// kKept: the event is held here. kOwed: it is parked in the kernel under
  /// its lane (or handed to it), which runs the step when it resumes.
  enum class State : std::uint8_t { kIdle, kKept, kOwed };

  struct Side {
    sim::KeptEvent at{};
    Step step{};
    State state = State::kIdle;
  };

  struct LaneAwaiter {
    Pipeline* pipe;
    LaneId lane;
    bool await_ready() const noexcept { return pipe->owes(lane); }
    std::coroutine_handle<> await_suspend(std::coroutine_handle<> h) {
      pipe->lanes_[lane] = h;
      return pipe->pump();
    }
    void await_resume() { pipe->runOwed(lane); }
  };

  void keep(Side& side, util::Time at, Step step) {
    side.at = sim_->keep(at);
    side.step = step;
    side.state = State::kKept;
  }

  /// The side whose events `lane` owns and is resumed for.
  Side& sideOf(LaneId lane) noexcept {
    return lane == kProducer ? producer_ : drain_;
  }

  [[nodiscard]] bool owes(LaneId lane) noexcept {
    return sideOf(lane).state == State::kOwed;
  }

  /// Runs the step of the event the kernel (or the other lane) dispatched
  /// to `lane`, if any.
  void runOwed(LaneId lane) {
    Side& side = sideOf(lane);
    if (side.state != State::kOwed) return;
    side.state = State::kIdle;
    run(side.step);
  }

  /// Runs kept events in place while the earliest is next; returns the
  /// handle the running lane transfers to: noop to suspend, the producer
  /// lane for a transfer it must await, or the load lane for the join.
  std::coroutine_handle<> pump() {
    horizon_ = sim_->horizon();
    for (;;) {
      if (native_) return lanes_[kProducer];
      Side* next = producer_.state == State::kKept ? &producer_ : nullptr;
      if (drain_.state == State::kKept &&
          (next == nullptr || sim::before(drain_.at, next->at))) {
        next = &drain_;
      }
      if (next == nullptr) return std::noop_coroutine();
      if (!sim::before(next->at, horizon_)) {
        sim_->park(next->at, lanes_[next == &producer_ ? kProducer : kLoad]);
        next->state = State::kOwed;
        return std::noop_coroutine();
      }
      sim_->dispatchInPlace(next->at);
      if (next->step == Step::kJoin) {
        next->state = State::kOwed;  // the load lane runs past the pipeline
        return lanes_[kLoad];
      }
      next->state = State::kIdle;
      run(next->step);
    }
  }

  void run(Step step) {
    switch (step) {
      case Step::kAdvance: producerAdvance(); break;
      case Step::kTransferred: producerTransferred(); break;
      case Step::kGot: drainChunk(); break;
      case Step::kDrained: drainNext(); break;
      case Step::kJoin: joined_ = true; break;
    }
  }

  // ---- producer: transfer a chunk, put it, repeat ----

  void producerAdvance() {
    produceLeft_ -= chunk_;
    if (produceLeft_ == 0) {
      finishSide();
      return;
    }
    chunk_ = std::min(produceLeft_, fullChunk_);
    util::Time occupancy;
    if (!link_->tryStartTransfer(util::Bytes{chunk_}, occupancy)) {
      native_ = true;  // the producer lane awaits link.transfer() itself
    } else if (occupancy == util::Time::zero()) {
      producerTransferred();
    } else {
      keep(producer_, sim_->now() + occupancy, Step::kTransferred);
    }
  }

  void producerTransferred() {
    // The one step that can add to the pending set: a release that hands
    // the link to a queued transfer wakes it.
    if (link_->finishTransfer(util::Bytes{chunk_})) horizon_ = sim_->horizon();
    producerPut();
  }

  void producerPut() {
    if (buffered_ == capacity_) {
      producerBlocked_ = true;  // a get admits the chunk and wakes it
      return;
    }
    if (drainBlocked_) {
      drainBlocked_ = false;
      keep(drain_, sim_->now(), Step::kGot);
    } else {
      ++buffered_;
    }
    producerAdvance();
  }

  /// The producer lane: runs producer steps the kernel owes it, and awaits
  /// every transfer that cannot start uncontended.
  sim::Process producerLane() {
    for (;;) {
      co_await LaneAwaiter{this, kProducer};
      while (native_) {
        native_ = false;
        // This lane pumps nothing until the transfer ends, so the drain's
        // kept event goes to the kernel now, under the load lane.
        if (drain_.state == State::kKept) {
          sim_->park(drain_.at, lanes_[kLoad]);
          drain_.state = State::kOwed;
        }
        std::exception_ptr aborted;
        try {
          co_await link_->transfer(util::Bytes{chunk_});
        } catch (...) {
          aborted = std::current_exception();
        }
        if (aborted) {
          producerAborted(aborted);
        } else {
          producerPut();
        }
      }
    }
  }

  /// An aborted transfer ends the producer: bytes never put are dropped
  /// (the aborted chunk was never put, so every buffered chunk is full) and
  /// the drain finishes once the buffer is empty.
  void producerAborted(std::exception_ptr abort) {
    failure_ = std::move(abort);
    drainLeft_ -= produceLeft_;
    produceLeft_ = 0;
    finishSide();
    if (drainBlocked_ && drainLeft_ == 0) {
      drainBlocked_ = false;
      finishSide();
    }
  }

  // ---- drain: get a chunk, hold it for its drain time, repeat ----

  void drainNext() {
    drainLeft_ -= drainChunk_;
    drainChunk_ = 0;
    if (drainLeft_ == 0) {
      finishSide();
      return;
    }
    if (buffered_ == 0) {
      drainBlocked_ = true;  // a put hands it the chunk and wakes it
      return;
    }
    if (producerBlocked_) {
      producerBlocked_ = false;  // its chunk refills the freed slot
      keep(producer_, sim_->now(), Step::kAdvance);
    } else {
      --buffered_;
    }
    drainChunk();
  }

  void drainChunk() {
    // Every chunk but a short last one is full-sized.
    drainChunk_ = std::min(drainLeft_, fullChunk_);
    const util::Time drain = drainChunk_ == fullChunk_ ? fullDrain_ : lastDrain_;
    if (drain == util::Time::zero()) {
      drainNext();
    } else {
      keep(drain_, sim_->now() + drain, Step::kDrained);
    }
  }

  /// The second side to finish wakes the load, as a WaitGroup would.
  void finishSide() {
    if (--running_ == 0) keep(drain_, sim_->now(), Step::kJoin);
  }

  sim::Simulator* sim_;
  sim::SimplexLink* link_;
  const std::size_t capacity_;
  const std::uint64_t fullChunk_;
  const util::Time fullDrain_;
  const util::Time lastDrain_;
  std::uint64_t produceLeft_;  ///< bytes not yet put, the current chunk's too
  std::uint64_t drainLeft_;    ///< bytes not yet drained
  std::uint64_t chunk_ = 0;    ///< the producer's current chunk
  std::uint64_t drainChunk_ = 0;  ///< the drain's current chunk
  std::size_t buffered_ = 0;
  int running_ = 2;
  bool producerBlocked_ = false;
  bool drainBlocked_ = false;
  bool native_ = false;  ///< the current chunk must go through transfer()
  bool joined_ = false;
  Side producer_;
  Side drain_;
  std::exception_ptr failure_{};
  /// pump()'s bound: a kept event before it is next (Simulator::horizon,
  /// read when pump() starts and whenever a step adds to the pending set).
  sim::KeptEvent horizon_{};
  std::coroutine_handle<> lanes_[2] = {};
  sim::Process producerLane_ = producerLane();
};

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
  // event order), but takes effect mid-pipeline: the pipeline only ever
  // sees the truncated byte count.
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

  {
    Pipeline pipeline{*this, wire};
    while (!pipeline.done()) co_await pipeline.loadLane();
    if (auto aborted = pipeline.failure()) std::rethrow_exception(aborted);
  }

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
