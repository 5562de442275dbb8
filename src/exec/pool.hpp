#pragma once
/// \file pool.hpp
/// Persistent work-stealing thread pool for the sweep-shaped workloads of
/// this library (figure sweeps, chassis blades, what-if grids). Every sweep
/// point is an independent Simulator run, so the pool's job is purely to
/// keep host cores busy without paying thread spawn/join per call the way
/// the old analysis::parallelFor did.
///
/// Structure: one worker thread per hardware context (configurable), each
/// owning a Chase-Lev-style deque — the owner pushes and pops at the back
/// (LIFO, cache-friendly for nested fork), idle workers steal from the
/// front (FIFO, grabs the oldest/biggest work first). Deques are guarded by
/// small per-deque mutexes rather than lock-free CAS loops: tasks here are
/// whole simulator runs (milliseconds to seconds), so queue overhead is
/// noise and the mutexed variant is trivially ThreadSanitizer-clean.
///
/// Blocking submitters help: a thread that waits inside parallelFor/
/// parallelMap executes queued tasks itself instead of sleeping, which (a)
/// makes nested parallelism deadlock-free and (b) means `threads == 1`
/// degenerates to a plain serial loop on the calling thread.
///
/// Determinism contract: parallelFor hands out index chunks dynamically,
/// but results are stored by index, so any reduction that combines results
/// in index order is byte-identical to the serial run regardless of the
/// thread count. The determinism test suite asserts this for the figure
/// sweeps and chassis runs.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <vector>

#include "exec/instrument.hpp"
#include "obs/metrics.hpp"

namespace prtr::exec {

/// Hardware thread count, at least 1.
[[nodiscard]] std::size_t hardwareConcurrency() noexcept;

/// Knobs for one parallelFor/parallelMap call.
struct ForOptions {
  /// Maximum concurrently active participants (calling thread included).
  /// 0 = the pool's thread count; 1 = serial on the calling thread.
  std::size_t threads = 0;
  /// Minimum indices per dynamically claimed chunk. The chunk size itself
  /// is fixed statically per call (count / (threads * 8), floored at
  /// `grain`); chunks are claimed dynamically for load balance.
  std::size_t grain = 1;
};

/// Persistent work-stealing pool. Thread-safe; one lazily created global
/// instance serves the whole process (Pool::global()), and independent
/// instances can be constructed for isolation (tests, embedders).
class Pool {
 public:
  /// Starts `threads` workers (0 = hardwareConcurrency()).
  explicit Pool(std::size_t threads = 0);
  /// Drains queued tasks, then joins every worker.
  ~Pool();
  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  [[nodiscard]] std::size_t threadCount() const noexcept {
    return deques_.size();
  }

  /// Enqueues `fn` and returns its future. Exceptions thrown by `fn`
  /// surface from future::get().
  template <typename Fn>
  [[nodiscard]] auto submit(Fn&& fn)
      -> std::future<std::invoke_result_t<std::decay_t<Fn>&>> {
    using R = std::invoke_result_t<std::decay_t<Fn>&>;
    std::packaged_task<R()> task{std::forward<Fn>(fn)};
    std::future<R> future = task.get_future();
    push(std::make_unique<TaskImpl<R>>(std::move(task)));
    return future;
  }

  /// Applies `fn(index)` for every index in [0, count). The calling thread
  /// participates (and helps run unrelated queued tasks while waiting, so
  /// nesting parallelFor inside pool tasks cannot deadlock). The first
  /// exception (in completion order) is rethrown after no new chunks start;
  /// indices already claimed by other participants may still run.
  void parallelFor(std::size_t count,
                   const std::function<void(std::size_t)>& fn,
                   ForOptions options = {});

  /// Maps `fn` over `inputs`, preserving order. Results need not be
  /// default-constructible: they are emplaced into per-index optional slots
  /// and moved out once the sweep completes.
  template <typename T, typename Fn>
  [[nodiscard]] auto parallelMap(const std::vector<T>& inputs, Fn&& fn,
                                 ForOptions options = {})
      -> std::vector<std::invoke_result_t<Fn&, const T&>> {
    using R = std::invoke_result_t<Fn&, const T&>;
    std::vector<std::optional<R>> slots(inputs.size());
    parallelFor(
        inputs.size(),
        [&](std::size_t i) { slots[i].emplace(fn(inputs[i])); }, options);
    std::vector<R> results;
    results.reserve(inputs.size());
    for (std::optional<R>& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

  /// Pops one queued task (own deque first, then stealing) and runs it on
  /// the calling thread. Returns false when every deque is empty.
  bool tryRunOneTask();

  /// Pool counters under exec.pool.* (threads, submitted, executed, steals,
  /// parallel_fors) for obs consumers. Host timings go to obs::hostMetrics():
  /// every task under host.exec.pool.task_ns, and the ready-task backlog at
  /// every push under host.exec.pool.queue_depth.
  [[nodiscard]] obs::MetricsSnapshot metricsSnapshot() const;

  /// Attaches a happens-before race checker: task submit/steal/complete
  /// and parallelFor barrier edges are reported as release/acquire pairs
  /// on per-task sync objects (see exec/instrument.hpp). Null (the
  /// default) keeps the hot paths uninstrumented. The observer must
  /// outlive the pool or be detached first.
  void setRaceChecker(RaceObserver* observer) noexcept {
    raceObserver_.store(observer, std::memory_order_release);
  }

  /// Injects a schedule oracle that perturbs task placement, pop ends,
  /// and steal-victim order (verify::exploreSchedules drives this with
  /// seeded oracles to enumerate interleavings). Null = default policy.
  /// Unlike the race checker, the oracle does NOT have to outlive the
  /// pool: this call quiesces before returning, so the previous oracle
  /// may be destroyed as soon as it is detached (exploreSchedules runs a
  /// scoped oracle per replay).
  void setScheduleOracle(ScheduleOracle* oracle) noexcept {
    oracle_.store(oracle, std::memory_order_seq_cst);
    // A thread that loaded the previous oracle holds oracleUsers_ until
    // it is done calling into it; once the count drains, no thread can
    // reach the old oracle again (lockOracle re-checks after pinning).
    while (oracleUsers_.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }

  /// The process-wide pool, created on first use with the thread count last
  /// given to setGlobalThreads (default: hardware concurrency).
  [[nodiscard]] static Pool& global();

  /// Sets the global pool's thread count. An already created global pool of
  /// a different size is torn down (draining its queue) and lazily rebuilt.
  /// Call at startup, before concurrent users hold references.
  static void setGlobalThreads(std::size_t threads);

 private:
  /// Type-erased queued unit of work. run() must not throw: user exceptions
  /// are captured into futures (submit) or the sweep state (parallelFor).
  /// syncId identifies the task as a happens-before sync object: push()
  /// releases into it, the running thread acquires from it.
  struct Task {
    virtual ~Task() = default;
    virtual void run() noexcept = 0;
    std::uint64_t syncId = 0;
  };

  template <typename R>
  struct TaskImpl final : Task {
    explicit TaskImpl(std::packaged_task<R()> t) : task(std::move(t)) {}
    void run() noexcept override { task(); }
    std::packaged_task<R()> task;
  };

  /// Pins the attached oracle against a concurrent setScheduleOracle
  /// (which quiesces on oracleUsers_). Returns null without pinning when
  /// no oracle is attached; a non-null return must be paired with
  /// unlockOracle().
  [[nodiscard]] ScheduleOracle* lockOracle() noexcept;
  void unlockOracle() noexcept;

  /// Shared state of one parallelFor call; runners hold shared ownership
  /// so the state outlives early caller unwinding paths.
  struct ForState;
  struct ForRunner;

  struct WorkerDeque {
    std::mutex mutex;
    std::deque<std::unique_ptr<Task>> tasks;
  };

  void push(std::unique_ptr<Task> task);
  [[nodiscard]] std::unique_ptr<Task> obtain(std::size_t self);
  void workerMain(std::size_t index);
  void runObtainedTask(Task& task);
  static void runChunks(ForState& state);

  std::vector<std::unique_ptr<WorkerDeque>> deques_;
  std::vector<std::thread> workers_;

  std::mutex sleepMutex_;
  std::condition_variable wake_;
  std::size_t readyHint_ = 0;  ///< queued tasks (guarded by sleepMutex_)
  bool stopping_ = false;      ///< guarded by sleepMutex_

  // Observer/oracle pointers publish with release and are read with
  // acquire (free on x86) so the pointee's construction is visible to a
  // worker before its first callback.
  std::atomic<RaceObserver*> raceObserver_{nullptr};
  std::atomic<ScheduleOracle*> oracle_{nullptr};
  std::atomic<std::size_t> oracleUsers_{0};
  std::atomic<std::uint64_t> nextSyncId_{1};
  std::atomic<std::size_t> pushCursor_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> parallelFors_{0};
};

/// Convenience wrappers over Pool::global().
void parallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                 ForOptions options = {});

/// Attaches `observer` to the process-wide pool and artifact cache in one
/// call (the usual way verify::RaceDetector is armed). Null detaches both.
void setRaceChecker(RaceObserver* observer);

template <typename T, typename Fn>
[[nodiscard]] auto parallelMap(const std::vector<T>& inputs, Fn&& fn,
                               ForOptions options = {})
    -> std::vector<std::invoke_result_t<Fn&, const T&>> {
  return Pool::global().parallelMap(inputs, std::forward<Fn>(fn), options);
}

}  // namespace prtr::exec
