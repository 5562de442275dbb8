#pragma once
/// \file event_queue.hpp
/// The future half of the pending-event set: one binary min-heap ordered by
/// exact (timePs, seq). The order is total (every schedule gets a fresh
/// seq), so the pop sequence — and every simulated byte — is a pure
/// function of the push sequence. Push and pop are inline; the Simulator
/// and the fleet's per-cell loop both hold an EventHeap by value.
///
/// The Simulator's pending set is this heap plus a same-instant FIFO:
/// events scheduled at now() never enter the heap (see simulator.hpp for
/// why dispatch still follows (timePs, seq) exactly). The fleet loop uses
/// the heap alone.
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
    siftUp(heap_.size() - 1, event);
  }

  /// Removes and returns the minimum event. Precondition: !empty().
  E pop() {
    const E top = heap_.front();
    const E last = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return top;
    // Floyd's pop: walk the root's hole down to a leaf along the earlier
    // child (one comparison per level), then sift the old last event up
    // from there; it came from the bottom, so it rarely climbs.
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      heap_[hole] = heap_[child];
      hole = child;
    }
    siftUp(hole, last);
    return top;
  }

  /// The minimum event. Precondition: !empty().
  [[nodiscard]] const E& top() const noexcept { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// Strict (timePs, seq) order: `a` is due before `b`.
  static bool before(const E& a, const E& b) noexcept {
    return a.timePs != b.timePs ? a.timePs < b.timePs : a.seq < b.seq;
  }

  /// Stores `event` at `hole` or above it, moving later parents down.
  void siftUp(std::size_t hole, const E& event) noexcept {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      if (!before(event, heap_[parent])) break;
      heap_[hole] = heap_[parent];
      hole = parent;
    }
    heap_[hole] = event;
  }

  std::vector<E> heap_;
};

}  // namespace prtr::sim
