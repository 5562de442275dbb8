#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

namespace prtr::sim {

void Simulator::throwPast() {
  throw util::SimulationError{"Simulator: event scheduled in the past"};
}

void Simulator::spawn(Process process) {
  if (!process.valid()) {
    throw util::SimulationError{"Simulator::spawn: invalid process"};
  }
  scheduleAt(now_, process.startDetached());
  roots_.push_back(std::move(process));
}

void Simulator::dispatchUntil(std::int64_t deadlinePs) {
  // Every pending event is due at or after now_, so nothing is due before a
  // past deadline. Otherwise now_ only advances to heap times <= deadlinePs.
  if (now_.ps() > deadlinePs) return;
  // Kept events dispatch in place only up to this deadline (horizon()).
  struct DeadlineScope {
    std::int64_t& slot;
    std::int64_t saved;
    ~DeadlineScope() { slot = saved; }
  } scope{deadlinePs_, std::exchange(deadlinePs_, deadlinePs)};
  for (;;) {
    std::coroutine_handle<> handle;
    if (!nowQueue_.empty() &&
        (queue_.empty() || queue_.top().timePs != now_.ps())) {
      handle = nowQueue_.pop().handle;
    } else if (!queue_.empty() && queue_.top().timePs <= deadlinePs) {
      // Either due at now_ (scheduled before this instant began, so it
      // precedes the FIFO) or the next instant; now_ <= deadlinePs holds.
      now_ = util::Time::picoseconds(queue_.top().timePs);
      handle = queue_.top().payload;
      queue_.pop();
    } else {
      return;
    }
    ++events_;
    handle.resume();
    if (roots_.size() >= sweepAt_) rethrowRootFailures();
  }
}

void Simulator::rethrowRootFailures() {
  // Finished roots are also reclaimed here so that long simulations with
  // many short-lived spawned processes do not accumulate dead frames. The
  // loop sweeps again once spawns have doubled the survivors (or brought
  // them to 64): a count that in-place dispatch leaves alone, and one that
  // keeps reclaiming O(1) per spawn.
  for (std::size_t i = 0; i < roots_.size();) {
    if (roots_[i].finished()) {
      if (auto failure = roots_[i].failure()) std::rethrow_exception(failure);
      roots_[i] = std::move(roots_.back());
      roots_.pop_back();
    } else {
      ++i;
    }
  }
  sweepAt_ = std::max(kMinSweep, 2 * roots_.size());
}

void Simulator::run() {
  dispatchUntil(util::Time::max().ps());
  rethrowRootFailures();
}

util::Time Simulator::runUntil(util::Time deadline) {
  dispatchUntil(deadline.ps());
  rethrowRootFailures();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace prtr::sim
