#include "exec/pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "exec/artifact_cache.hpp"
#include "obs/host.hpp"

namespace prtr::exec {
namespace {

/// Identifies the pool (and worker slot) owning the current thread, so
/// push() can target the worker's own deque and obtain() can prefer it.
thread_local Pool* tlsPool = nullptr;
thread_local std::size_t tlsWorker = 0;

/// Distinguishes a task's completion sync object from its submission one,
/// so "submitted happens-before run" and "ran happens-before joined" are
/// separate edges.
constexpr std::uint64_t kTaskDoneSalt = 0x444F4E45ull << 32;  // "DONE"

std::mutex globalMutex;
std::unique_ptr<Pool> globalPool;       // NOLINT(cert-err58-cpp)
std::size_t globalThreadRequest = 0;    // 0 = hardware concurrency

}  // namespace

std::size_t hardwareConcurrency() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

Pool::Pool(std::size_t threads) {
  const std::size_t n = threads == 0 ? hardwareConcurrency() : threads;
  deques_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    deques_.push_back(std::make_unique<WorkerDeque>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { workerMain(i); });
  }
}

Pool::~Pool() {
  {
    const std::scoped_lock lock{sleepMutex_};
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void Pool::push(std::unique_ptr<Task> task) {
  task->syncId = nextSyncId_.fetch_add(1, std::memory_order_relaxed);
  if (RaceObserver* observer = raceObserver_.load(std::memory_order_acquire)) {
    // Submission edge: everything the submitter did so far happens-before
    // whatever thread later runs this task.
    observer->release(task->syncId);
  }
  std::size_t target =
      tlsPool == this
          ? tlsWorker
          : pushCursor_.fetch_add(1, std::memory_order_relaxed) % deques_.size();
  if (ScheduleOracle* oracle = lockOracle()) {
    target = oracle->choose(deques_.size(), kOracleSitePush);
    unlockOracle();
  }
  {
    const std::scoped_lock lock{deques_[target]->mutex};
    deques_[target]->tasks.push_back(std::move(task));
  }
  std::size_t depth = 0;
  {
    const std::scoped_lock lock{sleepMutex_};
    depth = ++readyHint_;
  }
  wake_.notify_one();
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::hostMetrics().observe("host.exec.pool.queue_depth",
                             static_cast<std::int64_t>(depth));
}

// Both seq_cst round-trips pair with setScheduleOracle's store-then-drain:
// either the pinning thread sees the new pointer, or the detacher sees the
// pin and waits — the old oracle is never touched after detach returns.
ScheduleOracle* Pool::lockOracle() noexcept {
  if (oracle_.load(std::memory_order_acquire) == nullptr) return nullptr;
  oracleUsers_.fetch_add(1, std::memory_order_seq_cst);
  ScheduleOracle* oracle = oracle_.load(std::memory_order_seq_cst);
  if (oracle == nullptr) unlockOracle();
  return oracle;
}

void Pool::unlockOracle() noexcept {
  oracleUsers_.fetch_sub(1, std::memory_order_seq_cst);
}

std::unique_ptr<Pool::Task> Pool::obtain(std::size_t self) {
  ScheduleOracle* oracle = lockOracle();
  std::unique_ptr<Task> task;
  // Own deque: pop the back (the owner's LIFO end); an oracle may flip the
  // pop to the FIFO end to surface order-dependent bugs.
  {
    const std::scoped_lock lock{deques_[self]->mutex};
    if (!deques_[self]->tasks.empty()) {
      const bool front =
          oracle != nullptr && oracle->choose(2, kOracleSitePopEnd) == 1;
      if (front) {
        task = std::move(deques_[self]->tasks.front());
        deques_[self]->tasks.pop_front();
      } else {
        task = std::move(deques_[self]->tasks.back());
        deques_[self]->tasks.pop_back();
      }
    }
  }
  // Steal: take the front (FIFO end) of the first non-empty victim. The
  // oracle rotates which victim the probe starts at.
  if (!task) {
    const std::size_t n = deques_.size();
    const std::size_t spin =
        oracle != nullptr && n > 1
            ? oracle->choose(n - 1, kOracleSiteStealOrder)
            : 0;
    for (std::size_t k = 1; k < n && !task; ++k) {
      const std::size_t victim = (self + 1 + (spin + k - 1) % (n - 1)) % n;
      const std::scoped_lock lock{deques_[victim]->mutex};
      if (!deques_[victim]->tasks.empty()) {
        task = std::move(deques_[victim]->tasks.front());
        deques_[victim]->tasks.pop_front();
        steals_.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
  if (oracle != nullptr) unlockOracle();
  if (task) {
    const std::scoped_lock lock{sleepMutex_};
    --readyHint_;
  }
  return task;
}

void Pool::runObtainedTask(Task& task) {
  RaceObserver* observer = raceObserver_.load(std::memory_order_acquire);
  if (observer != nullptr) observer->acquire(task.syncId);
  {
    const obs::HostTimer timer{"host.exec.pool.task_ns"};
    task.run();
  }
  // Completion edge: a joiner that later acquires syncId ^ kTaskDoneSalt
  // (the parallelFor barrier does, through its ForState sync) observes
  // everything the task did.
  if (observer != nullptr) observer->release(task.syncId ^ kTaskDoneSalt);
  executed_.fetch_add(1, std::memory_order_relaxed);
}

void Pool::workerMain(std::size_t index) {
  tlsPool = this;
  tlsWorker = index;
  for (;;) {
    std::unique_ptr<Task> task = obtain(index);
    if (task) {
      runObtainedTask(*task);
      continue;
    }
    std::unique_lock lock{sleepMutex_};
    wake_.wait(lock, [this] { return stopping_ || readyHint_ > 0; });
    if (stopping_ && readyHint_ == 0) return;  // drained: safe to exit
  }
}

bool Pool::tryRunOneTask() {
  const std::size_t self = tlsPool == this ? tlsWorker : 0;
  std::unique_ptr<Task> task = obtain(self);
  if (!task) return false;
  runObtainedTask(*task);
  return true;
}

/// Shared state of one parallelFor call.
struct Pool::ForState {
  std::size_t count = 0;
  std::size_t chunk = 1;
  const std::function<void(std::size_t)>* fn = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t pendingRunners = 0;  ///< guarded by mutex
  std::exception_ptr failure;      ///< guarded by mutex
  /// Barrier sync object: every runner releases into it when its chunks
  /// are done; the caller acquires it once, after the last runner.
  RaceObserver* observer = nullptr;
  std::uint64_t barrierSyncId = 0;
};

void Pool::runChunks(ForState& state) {
  for (;;) {
    if (state.stop.load(std::memory_order_relaxed)) return;
    const std::size_t begin =
        state.next.fetch_add(state.chunk, std::memory_order_relaxed);
    if (begin >= state.count) return;
    const std::size_t end = std::min(begin + state.chunk, state.count);
    try {
      for (std::size_t i = begin; i < end; ++i) (*state.fn)(i);
    } catch (...) {
      const std::scoped_lock lock{state.mutex};
      if (!state.failure) state.failure = std::current_exception();
      state.stop.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

struct Pool::ForRunner final : Task {
  explicit ForRunner(std::shared_ptr<ForState> s) : state(std::move(s)) {}
  void run() noexcept override {
    runChunks(*state);
    if (state->observer != nullptr) state->observer->release(state->barrierSyncId);
    const std::scoped_lock lock{state->mutex};
    if (--state->pendingRunners == 0) state->done.notify_all();
  }
  std::shared_ptr<ForState> state;
};

void Pool::parallelFor(std::size_t count,
                       const std::function<void(std::size_t)>& fn,
                       ForOptions options) {
  if (count == 0) return;
  std::size_t participants =
      options.threads == 0 ? threadCount() : options.threads;
  participants = std::min(participants, count);
  if (participants <= 1) {
    // Serial fast path: same contract as the pooled path — the first
    // exception propagates unchanged and no further indices start.
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  parallelFors_.fetch_add(1, std::memory_order_relaxed);

  auto state = std::make_shared<ForState>();
  state->count = count;
  state->fn = &fn;
  const std::size_t grain = std::max<std::size_t>(options.grain, 1);
  state->chunk = std::max(grain, count / (participants * 8));
  state->observer = raceObserver_.load(std::memory_order_acquire);
  if (state->observer != nullptr) {
    state->barrierSyncId = nextSyncId_.fetch_add(1, std::memory_order_relaxed);
  }

  const std::size_t runners = participants - 1;  // caller is a participant
  state->pendingRunners = runners;
  for (std::size_t r = 0; r < runners; ++r) {
    push(std::make_unique<ForRunner>(state));
  }

  runChunks(*state);

  // Help run queued tasks (ours or anyone's) while the runners finish, so
  // nested sweeps cannot deadlock and a 1-worker pool still makes progress.
  std::unique_lock lock{state->mutex};
  while (state->pendingRunners != 0) {
    lock.unlock();
    if (!tryRunOneTask()) {
      lock.lock();
      state->done.wait_for(lock, std::chrono::milliseconds(1),
                           [&] { return state->pendingRunners == 0; });
    } else {
      lock.lock();
    }
  }
  // Barrier departure: adopt everything every runner did before returning
  // to the caller, matching the releases in ForRunner::run.
  if (state->observer != nullptr) state->observer->acquire(state->barrierSyncId);
  if (state->failure) std::rethrow_exception(state->failure);
}

obs::MetricsSnapshot Pool::metricsSnapshot() const {
  obs::MetricsSnapshot out;
  out.counters["exec.pool.threads"] = threadCount();
  out.counters["exec.pool.submitted"] =
      submitted_.load(std::memory_order_relaxed);
  out.counters["exec.pool.executed"] = executed_.load(std::memory_order_relaxed);
  out.counters["exec.pool.steals"] = steals_.load(std::memory_order_relaxed);
  out.counters["exec.pool.parallel_fors"] =
      parallelFors_.load(std::memory_order_relaxed);
  return out;
}

Pool& Pool::global() {
  const std::scoped_lock lock{globalMutex};
  if (!globalPool) globalPool = std::make_unique<Pool>(globalThreadRequest);
  return *globalPool;
}

void Pool::setGlobalThreads(std::size_t threads) {
  const std::scoped_lock lock{globalMutex};
  globalThreadRequest = threads;
  const std::size_t resolved =
      threads == 0 ? hardwareConcurrency() : threads;
  if (globalPool && globalPool->threadCount() != resolved) globalPool.reset();
}

void parallelFor(std::size_t count, const std::function<void(std::size_t)>& fn,
                 ForOptions options) {
  Pool::global().parallelFor(count, fn, options);
}

void setRaceChecker(RaceObserver* observer) {
  Pool::global().setRaceChecker(observer);
  ArtifactCache::global().setRaceChecker(observer);
}

}  // namespace prtr::exec
