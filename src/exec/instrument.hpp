#pragma once
/// \file instrument.hpp
/// Concurrency-instrumentation seams for the exec layer. Each is attached
/// through an atomic pointer that is null by default, so the hot paths pay
/// one load and a branch when instrumentation is off, and implementations
/// live in a higher layer (prtr::verify) that exec never links against.
///
/// RaceObserver receives the happens-before-relevant events of the pool and
/// the artifact cache: release/acquire edges through sync objects (task
/// submission, task completion, parallelFor barriers, mutex hand-offs) and
/// reads/writes of logically shared state. verify::RaceDetector folds them
/// into vector clocks and reports unordered conflicting accesses as RC0xx
/// diagnostics.
///
/// ScheduleOracle lets a driver (verify::exploreSchedules) perturb the
/// pool's scheduling decisions — which deque a task lands on, which victim
/// a steal probes first, which end of the owner's deque pops — so a seeded
/// oracle enumerates distinct task interleavings while the pool's
/// determinism contract (results stored by index) keeps outputs identical.
/// The oracle observes its own decision stream, which doubles as the
/// schedule's signature.

#include <cstddef>
#include <cstdint>

namespace prtr::exec {

/// Receives happens-before events. Implementations must be thread-safe:
/// every pool worker and every submitting thread calls in concurrently.
/// Callee identifies the calling thread itself (std::this_thread); the
/// exec layer only names the sync object or shared location.
class RaceObserver {
 public:
  virtual ~RaceObserver() = default;

  /// The calling thread publishes its causal past into sync object
  /// `syncId` (task enqueue, barrier arrival, mutex unlock).
  virtual void release(std::uint64_t syncId) noexcept = 0;

  /// The calling thread adopts the causal past stored in `syncId` (task
  /// dequeue/run, barrier departure, mutex lock).
  virtual void acquire(std::uint64_t syncId) noexcept = 0;

  /// The calling thread touched logically shared state `objectId`
  /// (`what` is a stable site label such as "exec.cache.entry").
  /// Unordered write/write, write/read, and read/write pairs are races.
  virtual void access(std::uint64_t objectId, const char* what,
                      bool write) noexcept = 0;
};

/// Perturbs pool scheduling decisions. choose() must return a value in
/// [0, choices); `site` tags the decision point so an oracle can fold the
/// decision stream into a schedule signature. Called concurrently from
/// every worker; implementations must be thread-safe.
class ScheduleOracle {
 public:
  virtual ~ScheduleOracle() = default;
  [[nodiscard]] virtual std::size_t choose(std::size_t choices,
                                           std::uint64_t site) noexcept = 0;
};

/// Decision-site tags fed to ScheduleOracle::choose.
inline constexpr std::uint64_t kOracleSitePush = 1;       ///< target deque
inline constexpr std::uint64_t kOracleSitePopEnd = 2;     ///< LIFO vs FIFO pop
inline constexpr std::uint64_t kOracleSiteStealOrder = 3; ///< victim rotation

}  // namespace prtr::exec
