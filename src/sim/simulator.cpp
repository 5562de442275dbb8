#include "sim/simulator.hpp"

namespace prtr::sim {

void Simulator::spawn(Process process) {
  if (!process.valid()) {
    throw util::SimulationError{"Simulator::spawn: invalid process"};
  }
  scheduleAt(now_, process.startDetached());
  roots_.push_back(std::move(process));
}

void Simulator::step(const Event& event) {
  now_ = util::Time::picoseconds(event.timePs);
  ++events_;
  event.handle.resume();
}

void Simulator::rethrowRootFailures() {
  // Finished roots are also reclaimed here so that long simulations with
  // many short-lived spawned processes do not accumulate dead frames.
  for (std::size_t i = 0; i < roots_.size();) {
    if (roots_[i].finished()) {
      if (auto failure = roots_[i].failure()) std::rethrow_exception(failure);
      roots_[i] = std::move(roots_.back());
      roots_.pop_back();
    } else {
      ++i;
    }
  }
}

void Simulator::run() {
  while (!queue_.empty()) {
    step(queue_.pop());
    if ((events_ & 0xFFFu) == 0 && roots_.size() > 64) rethrowRootFailures();
  }
  rethrowRootFailures();
}

util::Time Simulator::runUntil(util::Time deadline) {
  while (!queue_.empty() &&
         util::Time::picoseconds(queue_.top().timePs) <= deadline) {
    step(queue_.pop());
    if ((events_ & 0xFFFu) == 0 && roots_.size() > 64) rethrowRootFailures();
  }
  rethrowRootFailures();
  if (now_ < deadline) now_ = deadline;
  return now_;
}

}  // namespace prtr::sim
