#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel.
///
/// The kernel keeps a pending-event set of (time, sequence) ordered events
/// whose payloads are coroutine handles. Model code is written as C++20
/// coroutines (see process.hpp) that `co_await` delays, synchronization
/// primitives, and child processes. Time is integer picoseconds
/// (util::Time), so event order is exact and runs are bit-reproducible.
///
/// The pending set is two inline containers held by value, so scheduling
/// and dispatch make no virtual call:
///  * an EventHeap (event_queue.hpp) for events scheduled ahead of the
///    then-current time, and
///  * a same-instant FIFO for events scheduled *at* now(): zero-delay
///    wakes (semaphore hand-offs, channel and condition wakes), spawns and
///    joins skip the heap.
/// Dispatch keeps exact (time, seq) order. Every FIFO entry is due at
/// now() and was scheduled after now() was reached; every heap event due
/// at now() was scheduled before that, so it carries a smaller seq. The
/// kernel therefore dispatches a heap event due at now() first, then the
/// FIFO front, then the heap. A schedule consumes a seq either way, so the
/// seq sequence, and every simulated byte, matches a single ordered heap.

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/process.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace prtr::sim {

/// The event-driven simulator. Not thread-safe: one simulator per thread;
/// parameter sweeps parallelize by running independent simulators.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  [[nodiscard]] util::Time now() const noexcept { return now_; }

  /// Schedules `handle` to resume at absolute time `t` (>= now).
  void scheduleAt(util::Time t, std::coroutine_handle<> handle) {
    if (t == now_) {
      nowQueue_.push(handle);
      ++seq_;
      return;
    }
    if (t < now_) {
      throw util::SimulationError{"Simulator: event scheduled in the past"};
    }
    queue_.push({t.ps(), seq_++, handle});
  }

  /// Schedules `handle` to resume after `delay`.
  void scheduleAfter(util::Time delay, std::coroutine_handle<> handle) {
    scheduleAt(now_ + delay, handle);
  }

  /// Takes ownership of a root process and schedules its first resume at the
  /// current time. The process runs concurrently with other roots.
  void spawn(Process process);

  /// Runs until no events remain. Rethrows the first exception raised by a
  /// root process (child-process exceptions propagate to their parents).
  void run();

  /// Runs events with timestamp <= `deadline`; returns the new now(), which
  /// is max(now(), deadline). A deadline before now() runs nothing, not
  /// even a pending wake scheduled at now().
  util::Time runUntil(util::Time deadline);

  /// Awaitable that suspends the calling process for `delay`.
  [[nodiscard]] auto delay(util::Time delayTime) noexcept {
    struct Awaiter {
      Simulator* sim;
      util::Time dt;
      bool await_ready() const noexcept { return dt == util::Time::zero(); }
      void await_suspend(std::coroutine_handle<> h) { sim->scheduleAfter(dt, h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delayTime};
  }

  /// Total coroutine resumptions executed (kernel throughput metric).
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept { return events_; }

  /// Number of root processes that have been spawned.
  [[nodiscard]] std::size_t rootCount() const noexcept { return roots_.size(); }

 private:
  /// Dispatches events in (time, seq) order while one is due at or before
  /// `deadlinePs`.
  void dispatchUntil(std::int64_t deadlinePs);
  void rethrowRootFailures();

  EventHeap<std::coroutine_handle<>> queue_;  ///< scheduled ahead of now_
  detail::SmallFifo<std::coroutine_handle<>> nowQueue_;  ///< due at now_
  std::vector<Process> roots_;
  util::Time now_;
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace prtr::sim
