#pragma once
/// \file fifo.hpp
/// Small vector-backed FIFO for the kernel and its primitives.
///
/// Channel and Semaphore used std::deque for buffered values and blocked
/// waiters; a deque allocates its block map up front, and short-lived
/// primitives made those allocations a measurable slice of kernel time.
/// This FIFO keeps elements in one vector with a head cursor: a single
/// allocation that is reused for the lifetime of its owner, compacted
/// opportunistically when it drains. The Simulator's same-instant queue is
/// one too: its entries carry their seq, and a parked kept event inserts
/// in seq order.

#include <cstddef>
#include <utility>
#include <vector>

namespace prtr::sim::detail {

template <typename T>
class SmallFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return head_ == items_.size(); }
  [[nodiscard]] std::size_t size() const noexcept {
    return items_.size() - head_;
  }
  [[nodiscard]] T& front() noexcept { return items_[head_]; }
  [[nodiscard]] const T& front() const noexcept { return items_[head_]; }

  void push(T value) { items_.push_back(std::move(value)); }

  /// Inserts `value` behind every queued element that does not come after
  /// it under `before`; the queue must already be ordered by `before`.
  template <typename Before>
  void insertOrdered(T value, Before before) {
    auto at = items_.end();
    const auto first = items_.begin() + static_cast<std::ptrdiff_t>(head_);
    while (at != first && before(value, *(at - 1))) --at;
    items_.insert(at, std::move(value));
  }

  T pop() {
    T value = std::move(items_[head_]);
    ++head_;
    if (head_ == items_.size()) {
      items_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= items_.size()) {
      items_.erase(items_.begin(),
                   items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return value;
  }

 private:
  std::vector<T> items_;
  std::size_t head_ = 0;
};

}  // namespace prtr::sim::detail
