#pragma once
/// \file recorder.hpp
/// Per-cell request-trace recorder and the Perfetto exporter.
///
/// The fleet simulator drives one CellRecorder per cell from its event
/// loop: requests are tracked while in flight (bounded by the in-flight
/// population, not the request count) and either kept or discarded at
/// their terminal decision by the tail-based sampler (see policy.hpp).
/// Everything is keyed off simulated time and the deterministic trace id,
/// so the recorder is a pure observer: it consumes no RNG draws and the
/// simulated bytes are identical with tracing on or off.
///
/// exportFleetTrace renders the kept set through obs::ChromeTrace — one
/// process per cell, blade-mark lanes first, then one lane per kept
/// request in terminal-decision order, with retry/hedge flow arrows
/// synthesized from the attempt spans.

#include <cstdint>
#include <unordered_map>

#include "obs/trace_export.hpp"
#include "trace/policy.hpp"
#include "trace/request.hpp"

namespace prtr::trace {

/// Every `req` argument is the request's per-cell arrival ordinal, never
/// its storage slot: the fleet recycles slots, ordinals are never reused
/// within a cell, and the trace id derives from the ordinal.
class CellRecorder {
 public:
  CellRecorder(const TracePolicy& policy, std::uint64_t seed,
               std::size_t cellIndex);

  /// A fresh request exists; opens the live record (root span start).
  void onArrival(std::uint32_t req, std::int64_t nowPs);

  /// Terminal: shed at admission. `outcome` must be one of the kShed*.
  void onShed(std::uint32_t req, Outcome outcome, std::int64_t nowPs);

  /// A copy was dispatched (queued or started): opens attempt + queue.
  void onDispatch(std::uint32_t req, std::uint8_t attempt, bool hedge,
                  std::uint32_t blade, std::int64_t nowPs);

  /// Service begins; the completion time is already decided by the DES, so
  /// the whole service breakdown is recorded at once. Zero-length
  /// components (no stall, resident persona, faulted execute) are omitted.
  void onServiceStart(std::uint32_t req, std::uint8_t attempt,
                      std::uint32_t blade, std::int64_t startPs,
                      std::int64_t stallPs, std::int64_t reloadPs,
                      std::int64_t execPs, std::int64_t completionPs);

  /// A queued copy was discarded at dequeue (hedge loser).
  void onCancelled(std::uint32_t req, std::uint8_t attempt,
                   std::int64_t nowPs);

  void onRetryDenied(std::uint32_t req, std::int64_t nowPs);
  void onHedgeLaunch(std::uint32_t req, std::int64_t nowPs);

  /// Terminal: completed. `slowThresholdPs` < 0 means the slow quantile is
  /// not yet trusted; `deadlinePs` is the SLO latency target.
  void onDone(std::uint32_t req, bool hedgeWin, std::int64_t nowPs,
              std::int64_t slowThresholdPs, std::int64_t deadlinePs);

  /// Terminal: attempts exhausted or retry budget empty.
  void onFailed(std::uint32_t req, std::int64_t nowPs);

  /// Breaker / recovery-ladder transition on a blade lane.
  void bladeMark(std::uint32_t blade, BladeMarkKind kind, std::int64_t nowPs);

  /// Hands the kept set back and resets the recorder.
  [[nodiscard]] CellTrace take();

 private:
  RequestTrace& live(std::uint32_t req, std::int64_t nowPs);
  SpanRec* findSpan(RequestTrace& rt, SpanKind kind, std::uint8_t attempt);
  void finalize(std::uint32_t req, Outcome outcome, std::int64_t nowPs,
                KeepReason tailReason);

  TracePolicy policy_;
  std::uint64_t seed_ = 0;
  bool sampleAll_ = false;
  std::uint64_t sampleThreshold_ = 0;
  std::unordered_map<std::uint32_t, RequestTrace> live_;  ///< by ordinal
  CellTrace out_;
};

/// Renders the kept traces into `chrome`: process "fleet/cell<i>" per
/// cell, "blade<k>" instant lanes first (blades with marks, in index
/// order), then "rq:<hex16>" lanes in kept order. Spans are emitted in
/// canonical order (start time, then longer-first, then kind) so lanes
/// are time-ordered and nest correctly in Perfetto.
void exportFleetTrace(const FleetTrace& fleet, obs::ChromeTrace& chrome);

}  // namespace prtr::trace
