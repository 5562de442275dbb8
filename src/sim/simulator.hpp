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
///  * a same-instant FIFO of {seq, handle} for events scheduled *at* now():
///    zero-delay wakes (semaphore hand-offs, channel and condition wakes),
///    spawns and joins skip the heap.
/// Dispatch keeps exact (time, seq) order. Every FIFO entry is due at
/// now() and was scheduled after now() was reached; every heap event due
/// at now() was scheduled before that, so it carries a smaller seq. The
/// kernel therefore dispatches a heap event due at now() first, then the
/// FIFO front, then the heap. A schedule consumes a seq either way, so the
/// seq sequence, and every simulated byte, matches a single ordered heap.
///
/// Kept events. An owner may hold an event's (time, seq) itself instead of
/// handing it to the pending set: keep() takes the seq at the moment the
/// event is scheduled, exactly as scheduleAt() would. The event is next
/// when it precedes horizon(): the heap top, the FIFO front
/// (hence the FIFO's seqs) and the deadline of the running run() or
/// runUntil(). Then the owner dispatches it in place (now() moves to its
/// time and the event is counted) and carries on without a coroutine
/// switch. Otherwise the owner parks a coroutine on it under the reserved
/// seq, and the loop dispatches it in order. delay() and an uncontended
/// link transfer keep their own wake this way ("run-through"); the ICAP
/// chunk pipeline keeps one event per side. eventsProcessed() counts every
/// event dispatched, by the loop or in place, so the count and every seq
/// match a kernel that queued them all.

#include <coroutine>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/fifo.hpp"
#include "sim/process.hpp"
#include "util/error.hpp"
#include "util/units.hpp"

namespace prtr::sim {

/// An event whose owner keeps it (see the file comment): its time and the
/// seq it took when it was scheduled.
struct KeptEvent {
  std::int64_t timePs;
  std::uint64_t seq;
};

/// Strict (time, seq) order: `a` is dispatched before `b`.
[[nodiscard]] constexpr bool before(const KeptEvent& a,
                                    const KeptEvent& b) noexcept {
  return a.timePs != b.timePs ? a.timePs < b.timePs : a.seq < b.seq;
}

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
      nowQueue_.push({seq_++, handle});
      return;
    }
    if (t < now_) throwPast();
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

  /// Schedules an event at `t` (>= now) that the caller keeps itself.
  [[nodiscard]] KeptEvent keep(util::Time t) {
    if (t < now_) throwPast();
    return {t.ps(), seq_++};
  }

  /// The key a kept event must precede to be next: the loop's next event
  /// (the heap top, or the same-instant FIFO front) capped at the running
  /// dispatch's deadline. It stays exact until the pending set changes, so
  /// an owner running several kept events in place may read it once.
  [[nodiscard]] KeptEvent horizon() const noexcept {
    // Outside run/runUntil the deadline is the minimum: nothing is next.
    KeptEvent limit{deadlinePs_, std::numeric_limits<std::uint64_t>::max()};
    if (!queue_.empty()) {
      const auto& top = queue_.top();
      if (before({top.timePs, top.seq}, limit)) limit = {top.timePs, top.seq};
    }
    // A FIFO entry is due at now(); it follows any heap event due at now().
    if (!nowQueue_.empty() && before({now_.ps(), nowQueue_.front().seq}, limit)) {
      limit = {now_.ps(), nowQueue_.front().seq};
    }
    return limit;
  }

  /// Dispatches a kept event in place: now() moves to its time and it
  /// counts as processed. Precondition: the event is next, before() a
  /// horizon() read since the pending set last changed.
  void dispatchInPlace(const KeptEvent& event) noexcept {
    now_ = util::Time::picoseconds(event.timePs);
    ++events_;
  }

  /// Dispatches a kept event in place when it is next; false leaves
  /// everything unchanged.
  bool dispatchIfNext(const KeptEvent& event) noexcept {
    if (!before(event, horizon())) return false;
    dispatchInPlace(event);
    return true;
  }

  /// Hands a kept event to the pending set under its reserved seq; the loop
  /// resumes `handle` when the event's turn comes.
  void park(const KeptEvent& event, std::coroutine_handle<> handle) {
    if (event.timePs == now_.ps() && !nowQueue_.empty() &&
        event.seq > nowQueue_.front().seq) {
      nowQueue_.insertOrdered({event.seq, handle}, [](const auto& a, const auto& b) {
        return a.seq < b.seq;
      });
      return;
    }
    // Due later, or ahead of every same-instant wake: the heap orders it.
    queue_.push({event.timePs, event.seq, handle});
  }

  /// Schedules `handle` to resume at `t` (>= now), or, when that event is
  /// next, dispatches it in place and returns true: the caller continues
  /// at `t` without suspending.
  bool runThroughAt(util::Time t, std::coroutine_handle<> handle) {
    const KeptEvent event = keep(t);
    if (dispatchIfNext(event)) return true;
    park(event, handle);
    return false;
  }

  /// Awaitable that suspends the calling process for `delay`; it runs
  /// through (no suspension) when its wake is the next event.
  [[nodiscard]] auto delay(util::Time delayTime) noexcept {
    struct Awaiter {
      Simulator* sim;
      util::Time dt;
      bool await_ready() const noexcept { return dt == util::Time::zero(); }
      bool await_suspend(std::coroutine_handle<> h) {
        return !sim->runThroughAt(sim->now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, delayTime};
  }

  /// Events dispatched, by the loop or in place (kernel throughput metric).
  [[nodiscard]] std::uint64_t eventsProcessed() const noexcept { return events_; }

  /// Number of root processes that have been spawned.
  [[nodiscard]] std::size_t rootCount() const noexcept { return roots_.size(); }

 private:
  /// Dispatches events in (time, seq) order while one is due at or before
  /// `deadlinePs`.
  void dispatchUntil(std::int64_t deadlinePs);
  void rethrowRootFailures();
  [[noreturn]] static void throwPast();

  /// A same-instant wake: due at now_, in seq order.
  struct NowEntry {
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  EventHeap<std::coroutine_handle<>> queue_;  ///< scheduled ahead of now_
  detail::SmallFifo<NowEntry> nowQueue_;      ///< due at now_
  std::vector<Process> roots_;
  /// Root count at which the loop next reclaims finished roots: spawns
  /// move it, in-place dispatch does not.
  std::size_t sweepAt_ = kMinSweep;
  static constexpr std::size_t kMinSweep = 64;
  util::Time now_;
  /// The running dispatch's deadline; below every time outside it, so no
  /// event is dispatched in place then.
  std::int64_t deadlinePs_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t seq_ = 0;
  std::uint64_t events_ = 0;
};

}  // namespace prtr::sim
