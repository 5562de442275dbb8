#pragma once
/// \file process.hpp
/// Coroutine process type for the discrete-event simulator.
///
/// A Process starts suspended. It begins running either when a parent
/// process `co_await`s it (structured concurrency: the parent resumes when
/// the child finishes) or when it is handed to Simulator::spawn (detached
/// root; the simulator owns the frame and resumes it at the spawn time).
/// Exceptions thrown inside a child propagate to the awaiting parent;
/// exceptions in roots are rethrown from Simulator::run().

#include <coroutine>
#include <cstddef>
#include <exception>
#include <utility>

#include "sim/arena.hpp"

namespace prtr::sim {

class Simulator;

/// Eagerly-suspended coroutine; see file comment for the lifetime contract.
class [[nodiscard]] Process {
 public:
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    std::coroutine_handle<> continuation{};
    std::exception_ptr exception{};
    bool finished = false;
    bool started = false;

    Process get_return_object() { return Process{Handle::from_promise(*this)}; }
    std::suspend_always initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() const noexcept { return false; }
      std::coroutine_handle<> await_suspend(Handle h) const noexcept {
        promise_type& p = h.promise();
        p.finished = true;
        return p.continuation ? p.continuation : std::noop_coroutine();
      }
      void await_resume() const noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() noexcept {}
    void unhandled_exception() noexcept { exception = std::current_exception(); }

    // Frames are recycled through the thread-local arena (see arena.hpp):
    // model code spawns short-lived coroutines per load, executor step and
    // contended link transfer, and the general allocator was once the
    // kernel's hottest path.
    static void* operator new(std::size_t size) {
      return detail::frameArena().allocate(size);
    }
    static void operator delete(void* ptr) noexcept {
      detail::frameArena().release(ptr);
    }
    static void operator delete(void* ptr, std::size_t) noexcept {
      detail::frameArena().release(ptr);
    }
  };

  Process() noexcept = default;
  Process(Process&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(handle_); }
  [[nodiscard]] bool finished() const noexcept {
    return handle_ && handle_.promise().finished;
  }

  // --- Awaiting a process runs it to completion, then resumes the parent ---
  bool await_ready() const noexcept { return !handle_ || handle_.promise().finished; }
  std::coroutine_handle<> await_suspend(std::coroutine_handle<> parent) noexcept {
    promise_type& p = handle_.promise();
    p.continuation = parent;
    if (!p.started) {
      p.started = true;
      return handle_;  // symmetric transfer: start the child immediately
    }
    return std::noop_coroutine();  // already running (spawned); just wait
  }
  void await_resume() const {
    if (handle_ && handle_.promise().exception) {
      std::rethrow_exception(handle_.promise().exception);
    }
  }

 private:
  friend class Simulator;

  explicit Process(Handle handle) noexcept : handle_(handle) {}

  /// Marks the process as started and releases the handle to the caller
  /// (used by Simulator::spawn, which keeps the owning Process object).
  Handle startDetached() noexcept {
    handle_.promise().started = true;
    return handle_;
  }

  [[nodiscard]] std::exception_ptr failure() const noexcept {
    return handle_ ? handle_.promise().exception : nullptr;
  }

  void destroy() noexcept {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_{};
};

}  // namespace prtr::sim
