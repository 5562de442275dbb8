#pragma once
/// \file trace.hpp
/// Timeline tracing: records spans on lanes and renders an ASCII Gantt
/// chart. Used to reproduce the execution profiles of the paper's Figures
/// 2-4 (task anatomy, FRTR timeline, PRTR hit/miss timelines) directly from
/// simulator activity.
///
/// The recording hot path is id-based: lanes and labels are interned once
/// through the timeline's SymbolTable (see symbols.hpp) and `record` is an
/// append of one 32-byte POD into a flat arena with batched growth, plus
/// O(1) updates of the per-lane busy accumulators and the running horizon.
/// Strings materialize only at render/export boundaries (renderGantt,
/// materialize(), the obs Chrome-trace writer).

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/symbols.hpp"
#include "util/units.hpp"

namespace prtr::sim {

/// One traced activity interval. POD; the lane/label ids resolve through
/// the SymbolTable of the Timeline that recorded it.
struct Span {
  LaneId lane;       ///< e.g. "PRR0", "config", "HT-in" (interned)
  LabelId label;     ///< e.g. "partial(sobel)", "compute" (interned)
  char glyph = '#';  ///< fill character in the Gantt rendering
  util::Time start;
  util::Time end;
};

/// A span with its names materialized; the export/verify boundary type.
struct NamedSpan {
  std::string lane;
  std::string label;
  char glyph = '#';
  util::Time start;
  util::Time end;
};

/// Collects spans. Recorders intern their lane/label names once (typically
/// at construction) and record by id. Not thread-safe; one timeline per
/// recording simulator.
class Timeline {
 public:
  /// Interns a lane/label name, returning a dense id that stays valid for
  /// the lifetime of this timeline (clear() keeps the symbol table, so
  /// cached ids survive reuse across runs).
  LaneId lane(std::string_view name);
  LabelId label(std::string_view name);

  /// Records [start, end) — the hot path. Ids must come from this
  /// timeline's lane()/label().
  void record(LaneId lane, LabelId label, char glyph, util::Time start,
              util::Time end);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const SymbolTable& symbols() const noexcept { return symbols_; }
  [[nodiscard]] const std::string& laneName(LaneId id) const {
    return symbols_.laneName(id);
  }
  [[nodiscard]] const std::string& labelName(LabelId id) const {
    return symbols_.labelName(id);
  }

  [[nodiscard]] bool empty() const noexcept { return spans_.empty(); }

  /// Drops recorded spans but keeps interned symbols, so recorder-cached
  /// ids remain valid across runs.
  void clear() noexcept;

  /// Total busy time on one lane (sum of span lengths; overlaps not
  /// merged). O(1): maintained on append.
  [[nodiscard]] util::Time laneBusy(LaneId lane) const noexcept;
  /// Name-based lookup; zero for lanes never recorded on.
  [[nodiscard]] util::Time laneBusy(std::string_view lane) const noexcept;

  /// Latest end time across all spans. O(1): maintained on append.
  [[nodiscard]] util::Time horizon() const noexcept {
    return util::Time::picoseconds(horizonPs_);
  }

  /// Copies the spans out with names attached (export/verify boundary).
  [[nodiscard]] std::vector<NamedSpan> materialize() const;

  /// Renders an ASCII Gantt: one row per lane (in first-seen order), time
  /// scaled to `width` columns; a legend lists span labels with glyphs.
  [[nodiscard]] std::string renderGantt(int width = 100) const;

 private:
  static constexpr std::size_t kGrowthBatch = 256;

  SymbolTable symbols_;
  std::vector<Span> spans_;
  std::vector<std::int64_t> laneBusyPs_;  // indexed by LaneId, grown on intern
  std::int64_t horizonPs_ = 0;
};

}  // namespace prtr::sim
