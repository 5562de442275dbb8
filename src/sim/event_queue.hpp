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
/// why dispatch still follows (timePs, seq) exactly). The fleet loop keeps
/// only its retry and hedge timers here; its next arrival and per-blade
/// completions sit in fixed registers that share the timers' seq counter.
///
/// A heap fits the measured traffic: the kernel's pending set is a handful
/// of events (executor, prepare, ICAP producer, drain), so a push or pop
/// touches two or three levels however far apart the event times are.
///
/// Events move field by field, three 8-byte words, and callers read the
/// minimum in place through top() before pop() discards it. A whole-event
/// copy compiles to a 16-byte load of {timePs, seq}; right after a sift
/// stored those fields with 8-byte stores, that load cannot be forwarded
/// from the store buffer and stalls the dispatch loop.

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

namespace prtr::sim {

/// One pending event: absolute time (integer picoseconds), a schedule
/// sequence number that breaks ties deterministically in schedule order,
/// and an 8-byte payload (the kernel's coroutine handle, the fleet's
/// packed timer {kind, request slot}).
template <typename Payload>
struct TimedEvent {
  std::int64_t timePs;
  std::uint64_t seq;
  Payload payload;
};

/// Min-heap of TimedEvent<Payload> on (timePs, seq): earlier time first,
/// then earlier schedule. Not thread-safe. Capacity is retained across
/// pops, so steady-state push/pop allocates nothing.
template <typename Payload>
class EventHeap {
  static_assert(sizeof(Payload) == 8 &&
                    std::is_trivially_copyable_v<Payload>,
                "EventHeap: the payload is one 8-byte word");

 public:
  using Entry = TimedEvent<Payload>;

  void push(const Entry& event) {
    heap_.emplace_back();
    siftUp(heap_.size() - 1, event.timePs, event.seq, event.payload);
  }

  /// Removes the minimum event; read it through top() first.
  /// Precondition: !empty().
  void pop() {
    const std::size_t n = heap_.size() - 1;
    const std::int64_t lastPs = heap_[n].timePs;
    const std::uint64_t lastSeq = heap_[n].seq;
    const Payload lastPayload = heap_[n].payload;
    heap_.pop_back();
    if (n == 0) return;
    // Floyd's pop: walk the root's hole down to a leaf along the earlier
    // child (one comparison per level), then sift the old last event up
    // from there; it came from the bottom, so it rarely climbs.
    std::size_t hole = 0;
    for (std::size_t child = 1; child < n; child = 2 * hole + 1) {
      if (child + 1 < n && before(heap_[child + 1], heap_[child])) ++child;
      move(heap_[hole], heap_[child]);
      hole = child;
    }
    siftUp(hole, lastPs, lastSeq, lastPayload);
  }

  /// The minimum event. Precondition: !empty().
  [[nodiscard]] const Entry& top() const noexcept { return heap_.front(); }
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

 private:
  /// Strict (timePs, seq) order: `a` is due before `b`.
  static bool before(const Entry& a, const Entry& b) noexcept {
    return a.timePs != b.timePs ? a.timePs < b.timePs : a.seq < b.seq;
  }

  static void move(Entry& to, const Entry& from) noexcept {
    to.timePs = from.timePs;
    to.seq = from.seq;
    to.payload = from.payload;
  }

  /// Stores the event at `hole` or above it, moving later parents down.
  void siftUp(std::size_t hole, std::int64_t timePs, std::uint64_t seq,
              Payload payload) noexcept {
    while (hole > 0) {
      const std::size_t parent = (hole - 1) / 2;
      const Entry& p = heap_[parent];
      if (timePs != p.timePs ? timePs > p.timePs : seq >= p.seq) break;
      move(heap_[hole], p);
      hole = parent;
    }
    heap_[hole].timePs = timePs;
    heap_[hole].seq = seq;
    heap_[hole].payload = payload;
  }

  std::vector<Entry> heap_;
};

}  // namespace prtr::sim
