#pragma once
/// \file sync.hpp
/// Synchronization primitives for simulator processes: Condition (broadcast
/// event), Semaphore (counting resource), and WaitGroup (join N processes).
/// All wake-ups are scheduled through the simulator at the current time, so
/// notifiers never run waiter code inline.

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/fifo.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace prtr::sim {

/// Broadcast condition: processes wait; notifyAll wakes every current waiter.
/// There is no predicate — callers re-check state after waking, as with a
/// condition variable.
class Condition {
 public:
  explicit Condition(Simulator& sim) noexcept : sim_(&sim) {}

  /// Awaitable that suspends until the next notifyAll().
  [[nodiscard]] auto wait() noexcept {
    struct Awaiter {
      Condition* cond;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) { cond->waiters_.push_back(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Wakes all current waiters (scheduled at the current simulation time).
  void notifyAll() {
    for (auto handle : waiters_) sim_->scheduleAfter(util::Time::zero(), handle);
    waiters_.clear();
  }

  [[nodiscard]] std::size_t waiterCount() const noexcept { return waiters_.size(); }

  /// Registers an already-suspended coroutine as a waiter (used by
  /// composite primitives such as WaitGroup).
  void addWaiter(std::coroutine_handle<> handle) { waiters_.push_back(handle); }

 private:
  Simulator* sim_;
  std::vector<std::coroutine_handle<>> waiters_;
};

/// Counting semaphore; acquire suspends when no permits are available.
/// Permits released while waiters exist transfer directly (FIFO fairness).
class Semaphore {
 public:
  Semaphore(Simulator& sim, std::int64_t initial) : sim_(&sim), count_(initial) {
    util::require(initial >= 0, "Semaphore: negative initial count");
  }

  [[nodiscard]] auto acquire() noexcept {
    struct Awaiter {
      Semaphore* sem;
      bool await_ready() const noexcept { return sem->tryAcquire(); }
      void await_suspend(std::coroutine_handle<> h) { sem->waiters_.push(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  /// Takes a permit without suspending; false when none is free. A free
  /// permit implies no waiters (release hands permits to waiters first).
  [[nodiscard]] bool tryAcquire() noexcept {
    if (count_ > 0) {
      --count_;
      return true;
    }
    return false;
  }

  void release() {
    if (!waiters_.empty()) {
      sim_->scheduleAfter(util::Time::zero(), waiters_.pop());
    } else {
      ++count_;
    }
  }

  [[nodiscard]] std::int64_t available() const noexcept { return count_; }
  [[nodiscard]] std::size_t waiterCount() const noexcept { return waiters_.size(); }

 private:
  Simulator* sim_;
  std::int64_t count_;
  detail::SmallFifo<std::coroutine_handle<>> waiters_;
};

/// RAII permit holder for Semaphore within one coroutine scope.
class ScopedPermit {
 public:
  explicit ScopedPermit(Semaphore& sem) noexcept : sem_(&sem) {}
  ScopedPermit(const ScopedPermit&) = delete;
  ScopedPermit& operator=(const ScopedPermit&) = delete;
  ~ScopedPermit() { sem_->release(); }

 private:
  Semaphore* sem_;
};

/// Join-counter: `add` before spawning work, workers call `done`, a waiter
/// suspends in `wait` until the count returns to zero.
class WaitGroup {
 public:
  explicit WaitGroup(Simulator& sim) noexcept : cond_(sim) {}

  void add(std::int64_t n = 1) noexcept { pending_ += n; }

  void done() {
    util::require(pending_ > 0, "WaitGroup: done() without matching add()");
    if (--pending_ == 0) cond_.notifyAll();
  }

  /// Process-side: co_await wg.wait() until all added work completes.
  [[nodiscard]] auto wait() noexcept {
    struct Awaiter {
      WaitGroup* wg;
      bool await_ready() const noexcept { return wg->pending_ == 0; }
      void await_suspend(std::coroutine_handle<> h) { wg->cond_.addWaiter(h); }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  [[nodiscard]] std::int64_t pending() const noexcept { return pending_; }

 private:
  Condition cond_;
  std::int64_t pending_ = 0;
};

}  // namespace prtr::sim
