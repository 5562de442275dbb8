#pragma once
/// \file request.hpp
/// The request-trace data model: one causal span tree per fleet request,
/// addressed by a deterministic 64-bit trace id derived from (seed, cell,
/// per-cell arrival ordinal) — never from wall clock — so two runs of the
/// same fleet produce byte-identical traces at any thread count.
///
/// Span taxonomy (also the label grammar the verify RQ rules parse back):
///
///   lane "rq:<hex16>"      one lane per kept request
///     request <outcome>    root span, arrival -> terminal decision
///     attempt#N[:hedge]    one per dispatch (fresh, retry, or hedge copy)
///     queue#N              enqueue -> service start of attempt N
///     service#N@bK         service occupancy on blade K
///     stall#N              link stall ahead of the persona load
///     reload#N             persona reconfiguration (calibrated configPs)
///     execute#N            fabric execution (calibrated exec slope)
///   instant marks          shed:<reason>, retry:denied, hedge:launch,
///                          hedge:win, hedge:cancel
///   lane "blade<K>"        breaker:open/half-open/close and
///                          ladder:escalate/deescalate instants
///
/// Flow events link attempt N to attempt N+1 ("retry") and the primary to
/// its hedge copy ("hedge"); they are synthesized at export from the
/// attempt spans, so the recorder never stores them.

#include <cstdint>
#include <string>
#include <vector>

namespace prtr::trace {

/// Terminal state of a request.
enum class Outcome : std::uint8_t {
  kInFlight,       ///< recording only; never exported
  kOk,
  kFailed,         ///< attempts exhausted or retry budget empty
  kShedBreaker,    ///< no breaker-eligible blade at admission
  kShedQueue,      ///< queue-depth bound
  kShedDeadline,   ///< estimated wait blew the SLO deadline
  kShedRateLimit,  ///< per-user token bucket empty
};

/// "ok", "failed", "shed:breaker", ... — the root-span outcome suffix.
[[nodiscard]] const char* toString(Outcome outcome) noexcept;

/// Why the sampler kept a request.
enum class KeepReason : std::uint8_t {
  kNone,          ///< not kept (or still in flight)
  kShed,
  kFailed,
  kDeadlineMiss,  ///< completed, but over the SLO latency target
  kHedgeWon,
  kSlow,          ///< at or above the cell-local slow quantile
  kSampled,       ///< hash-sampled from the non-tail population
};

[[nodiscard]] const char* toString(KeepReason reason) noexcept;
[[nodiscard]] constexpr bool isTail(KeepReason reason) noexcept {
  return reason != KeepReason::kNone && reason != KeepReason::kSampled;
}

/// Span kinds of the request lane, in nesting order.
enum class SpanKind : std::uint8_t {
  kRequest,
  kAttempt,
  kQueue,
  kService,
  kStall,
  kReload,
  kExecute,
};

/// One span of a request's tree. Times are simulated picoseconds.
struct SpanRec {
  SpanKind kind = SpanKind::kRequest;
  std::uint8_t attempt = 0;   ///< 1-based dispatch number; 0 for the root
  bool hedge = false;         ///< the attempt is the hedged copy
  std::int32_t blade = -1;    ///< service spans: blade index within the cell
  std::int64_t startPs = 0;
  std::int64_t endPs = 0;
};

/// Instant annotations on a request lane.
enum class MarkKind : std::uint8_t {
  kShedBreaker,
  kShedQueue,
  kShedDeadline,
  kShedRateLimit,
  kRetryDenied,
  kHedgeLaunch,
  kHedgeWin,
  kHedgeCancel,
};

[[nodiscard]] const char* toString(MarkKind kind) noexcept;

struct MarkRec {
  MarkKind kind = MarkKind::kHedgeLaunch;
  std::uint8_t attempt = 0;
  std::int64_t atPs = 0;
};

/// One request's recorded tree.
struct RequestTrace {
  std::uint64_t traceId = 0;
  std::uint32_t index = 0;  ///< per-cell arrival ordinal the id derives from
  Outcome outcome = Outcome::kInFlight;
  KeepReason keep = KeepReason::kNone;
  std::int64_t arrivalPs = 0;
  std::int64_t endPs = 0;
  std::vector<SpanRec> spans;
  std::vector<MarkRec> marks;

  [[nodiscard]] std::int64_t latencyPs() const noexcept {
    return endPs - arrivalPs;
  }
};

/// Instant annotations on a blade lane (breaker and recovery ladder).
enum class BladeMarkKind : std::uint8_t {
  kBreakerOpen,
  kBreakerHalfOpen,
  kBreakerClose,
  kLadderEscalate,
  kLadderDeescalate,
};

[[nodiscard]] const char* toString(BladeMarkKind kind) noexcept;

struct BladeMark {
  std::uint32_t blade = 0;
  BladeMarkKind kind = BladeMarkKind::kBreakerOpen;
  std::int64_t atPs = 0;
};

/// Everything one cell's recorder hands back.
struct CellTrace {
  std::size_t cell = 0;
  std::vector<RequestTrace> kept;   ///< terminal-decision order
  std::vector<BladeMark> bladeMarks;
  std::uint64_t recorded = 0;       ///< requests that reached a terminal state
  std::uint64_t tailEligible = 0;   ///< requests qualifying as tail
  std::uint64_t keptTail = 0;       ///< tail requests kept (== tailEligible)
  std::uint64_t keptSampled = 0;    ///< hash-sampled keeps (capped)
  std::uint64_t droppedCap = 0;     ///< sampled keeps dropped by the cap
};

/// Per-cell traces in cell order.
struct FleetTrace {
  std::vector<CellTrace> cells;

  [[nodiscard]] std::uint64_t keptTotal() const noexcept;
  [[nodiscard]] std::uint64_t tailEligibleTotal() const noexcept;
  [[nodiscard]] std::uint64_t keptTailTotal() const noexcept;
};

/// Deterministic trace id: a splitmix64-style mix of (seed, cell, arrival
/// ordinal). Never zero.
[[nodiscard]] std::uint64_t requestTraceId(std::uint64_t seed,
                                           std::uint64_t cell,
                                           std::uint64_t index) noexcept;

/// The avalanche mix the id and the sampler share (public for tests).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept;

/// 16 lowercase hex digits.
[[nodiscard]] std::string traceIdHex(std::uint64_t traceId);

/// "rq:<hex16>" — the request's lane name in the exported trace.
[[nodiscard]] std::string requestLaneName(std::uint64_t traceId);

/// The exported label of one span ("request ok", "attempt#2:hedge",
/// "service#1@b3", ...).
[[nodiscard]] std::string spanLabel(const SpanRec& span, Outcome outcome);

}  // namespace prtr::trace
