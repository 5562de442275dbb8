#pragma once
/// \file hooks.hpp
/// Uniform observability attachment point. Every run entry point that used
/// to take ad-hoc `sim::Timeline*` parameters (scenario, hw/sw, multitask,
/// chassis) now takes one Hooks struct: optional Gantt timelines and an
/// optional Chrome-trace collector that receives the recorded timelines.
/// All pointers are non-owning and may be null (null = feature off).
/// Metrics are not a hook: every run returns its MetricsSnapshot in its
/// report. Host wall-clock timings are not a hook either: they always
/// record into obs::hostMetrics() (obs/host.hpp).

#include "obs/trace_export.hpp"
#include "sim/trace.hpp"

namespace prtr::obs {

struct Hooks {
  /// Primary execution timeline — the PRTR side of a two-sided scenario,
  /// or the single timeline of one-sided runs (hw/sw, chassis blades).
  sim::Timeline* timeline = nullptr;
  /// Baseline (FRTR) timeline; recorded only by two-sided scenario runs.
  sim::Timeline* frtrTimeline = nullptr;
  /// Receives the run's timelines as trace processes. When set while the
  /// timeline pointers above are null, the run records into internal
  /// timelines so the trace is still populated.
  ChromeTrace* trace = nullptr;
};

}  // namespace prtr::obs
