#pragma once
/// \file trace_export.hpp
/// Chrome trace_event / Perfetto export of sim::Timeline spans. Each added
/// timeline becomes one "process" in the trace, its lanes become threads,
/// and every span is emitted as a complete ("X") event, so a scenario's
/// Gantt opens directly in chrome://tracing or ui.perfetto.dev. Counter
/// tracks (sampled gauges such as link occupancy or ICAP busy-fraction)
/// attach to a process and are emitted as "C" events, rendering as
/// utilization curves above the span lanes.
///
/// sampleTimelineCounters derives those tracks from a recorded timeline.
///
/// Timestamps: the trace_event format counts microseconds; simulated time
/// is integer picoseconds. Values are rendered as exact decimal fractions
/// (ps / 1e6, up to six fractional digits), so the export is deterministic
/// and lossless — no floating-point formatting is involved.

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace prtr::obs {

/// One sampled point of a counter track, in simulated picoseconds.
struct CounterSample {
  std::int64_t at_ps = 0;
  double value = 0.0;
};

/// One named utilization/occupancy curve ("link.in.occupancy", "icap.busy").
struct CounterTrack {
  std::string name;
  std::vector<CounterSample> samples;
};

/// One instant ("i") event on a lane — a zero-duration annotation such as
/// "breaker:open" or "hedge:win".
struct TraceInstant {
  std::string lane;
  std::string label;
  std::int64_t atPs = 0;
};

/// One half of a flow arrow ("s"/"f" event pair). Events sharing an id form
/// one arrow; `begin` distinguishes the start from the finish.
struct TraceFlow {
  std::string lane;
  std::string label;
  std::string id;
  std::int64_t atPs = 0;
  bool begin = true;
};

/// A pre-grouped process: lane order is declared up front and every span
/// names its lane, so ingestion is a hash lookup per span instead of the
/// O(lanes) scan add() performs — the difference matters when a fleet trace
/// carries thousands of request lanes.
struct ProcessTrace {
  std::string name;
  std::vector<std::string> lanes;  ///< declared order; tid = index + 1
  std::vector<sim::NamedSpan> spans;
  std::vector<TraceInstant> instants;
  std::vector<TraceFlow> flows;
};

/// Collects timelines and writes one Chrome-trace JSON document.
class ChromeTrace {
 public:
  /// Adds every span of `timeline` under a process named `processName`.
  /// Lanes map to thread ids in first-seen order; span order is preserved.
  void add(const std::string& processName, const sim::Timeline& timeline);

  /// Adds a pre-grouped process (lanes declared up front; spans, instants
  /// and flows name their lanes). Lanes not declared are appended in
  /// first-seen order.
  void addProcess(ProcessTrace process);

  /// Attaches counter tracks to the process named `processName` (sharing its
  /// pid so the curves render above that process's lanes). When no process
  /// with that name exists yet, a counter-only process is created.
  void addCounters(const std::string& processName,
                   std::vector<CounterTrack> tracks);

  [[nodiscard]] bool empty() const noexcept { return processes_.empty(); }
  [[nodiscard]] std::size_t processCount() const noexcept {
    return processes_.size();
  }

  /// Writes {"traceEvents":[...]} — metadata first (process/thread names
  /// plus explicit sort indexes in insertion order, so Perfetto lane order
  /// is stable across loads), then span events, then instants, then flow
  /// arrows, then counter samples.
  void write(std::ostream& os) const;
  [[nodiscard]] std::string toJson() const;

  /// write() to `path`; throws util::Error when the file cannot be opened.
  void writeFile(const std::string& path) const;

 private:
  struct Process {
    std::string name;
    std::vector<std::string> lanes;        ///< tid = index, first-seen order
    std::vector<sim::NamedSpan> spans;
    std::vector<std::size_t> spanLane;     ///< lane index per span
    std::vector<TraceInstant> instants;
    std::vector<std::size_t> instantLane;  ///< lane index per instant
    std::vector<TraceFlow> flows;
    std::vector<std::size_t> flowLane;     ///< lane index per flow event
    std::vector<CounterTrack> counters;
  };

  std::vector<Process> processes_;
};

/// Samples busy-fraction counter tracks from `timeline` over `buckets`
/// equal sim-time intervals, one curve per lane class:
///
///   "link.in.occupancy"   from the "HT-in" lane,
///   "link.out.occupancy"  from the "HT-out" lane,
///   "icap.busy"           from the "config" lane (configuration port),
///   "prr.residency"       averaged over the "PRR*"/"FPGA" compute lanes.
///
/// Tracks whose lane class recorded no spans are omitted; an empty timeline
/// yields no tracks. Values are fractions in [0, 1]; each sample is stamped
/// at its bucket's start time. Everything is integer-picosecond arithmetic
/// until the final division, so two bit-identical runs emit bit-identical
/// tracks.
[[nodiscard]] std::vector<CounterTrack> sampleTimelineCounters(
    const sim::Timeline& timeline, std::size_t buckets = 128);

/// Exact "<µs>.<frac>" rendering of a picosecond count (trailing zeros
/// trimmed; whole microseconds render without a fraction). Exposed for the
/// golden-file test.
[[nodiscard]] std::string microsecondsFromPicoseconds(std::int64_t ps);

}  // namespace prtr::obs
