#pragma once
/// \file lanes.hpp
/// Cached interned ids for the executor timeline conventions.
///
/// Executors record spans on a fixed set of lanes ("config", "HT-in",
/// "HT-out", "FPGA", "PRR<n>") with mostly-fixed labels. This
/// recorder interns those names once per timeline at construction and
/// records by id, keeping the per-span cost free of string traffic. It is
/// null-safe: with no timeline attached, enabled() is false and record()
/// must not be reached (callers keep their `if (recorder.enabled())`
/// guards, matching the old `if (options_.timeline)` shape).

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "sim/trace.hpp"

namespace prtr::runtime {

class TimelineRecorder {
 public:
  TimelineRecorder() = default;
  explicit TimelineRecorder(sim::Timeline* timeline) : tl_(timeline) {
    if (tl_ == nullptr) return;
    config = tl_->lane("config");
    htIn = tl_->lane("HT-in");
    htOut = tl_->lane("HT-out");
    fpga = tl_->lane("FPGA");
    dataIn = tl_->label("data-in");
    dataOut = tl_->label("data-out");
    fullConfig = tl_->label("full-config");
    initialFullConfig = tl_->label("initial-full-config");
  }

  [[nodiscard]] bool enabled() const noexcept { return tl_ != nullptr; }
  [[nodiscard]] sim::Timeline* timeline() const noexcept { return tl_; }

  /// Interns an ad-hoc label (e.g. a function name). The symbol table is
  /// the cache: repeat calls are one heterogeneous hash lookup.
  [[nodiscard]] sim::LabelId label(std::string_view name) {
    return tl_->label(name);
  }

  /// "PRR<slot>" lane, cached per slot index.
  [[nodiscard]] sim::LaneId prrLane(std::size_t slot) {
    while (prrLanes_.size() <= slot) {
      prrLanes_.push_back(
          tl_->lane("PRR" + std::to_string(prrLanes_.size())));
    }
    return prrLanes_[slot];
  }

  void record(sim::LaneId lane, sim::LabelId labelId, char glyph,
              util::Time start, util::Time end) {
    tl_->record(lane, labelId, glyph, start, end);
  }

  // Executor lane/label conventions (valid only when enabled()).
  sim::LaneId config;
  sim::LaneId htIn;
  sim::LaneId htOut;
  sim::LaneId fpga;
  sim::LabelId dataIn;
  sim::LabelId dataOut;
  sim::LabelId fullConfig;
  sim::LabelId initialFullConfig;

 private:
  sim::Timeline* tl_ = nullptr;
  std::vector<sim::LaneId> prrLanes_;
};

}  // namespace prtr::runtime
