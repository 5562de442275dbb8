#pragma once
/// \file event_queue.hpp
/// The pending-event set: one binary min-heap ordered by exact
/// (timePs, seq). The order is total (every schedule gets a fresh seq), so
/// the pop sequence — and every simulated byte — is a pure function of the
/// push sequence. Push and pop are inline; the Simulator and the fleet's
/// per-cell loop both hold an EventHeap by value.
///
/// A heap fits the measured traffic: the kernel's pending set is a handful
/// of events (executor, prepare, ICAP producer, drain), so a push or pop
/// touches two or three levels however far apart the event times are.

#include <algorithm>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace prtr::sim {

/// One pending resume: a coroutine handle stamped with its absolute time
/// (integer picoseconds) and a schedule sequence number that breaks ties
/// deterministically in schedule order.
struct Event {
  std::int64_t timePs;
  std::uint64_t seq;
  std::coroutine_handle<> handle;
};

/// Min-heap of `E`s on (E::timePs, E::seq): earlier time first, then
/// earlier schedule. Not thread-safe. Capacity is retained across pops, so
/// steady-state push/pop allocates nothing.
template <typename E>
class EventHeap {
 public:
  void push(const E& event) {
    heap_.push_back(event);
    std::push_heap(heap_.begin(), heap_.end(), After{});
  }

  /// Removes and returns the minimum event. Precondition: !empty().
  E pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const E event = heap_.back();
    heap_.pop_back();
    return event;
  }

  /// The minimum event. Precondition: !empty().
  [[nodiscard]] const E& top() const noexcept { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// std::push_heap-style "less" that yields a MIN-heap on (timePs, seq).
  struct After {
    bool operator()(const E& a, const E& b) const noexcept {
      return a.timePs != b.timePs ? a.timePs > b.timePs : a.seq > b.seq;
    }
  };

  std::vector<E> heap_;
};

}  // namespace prtr::sim
