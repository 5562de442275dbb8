#pragma once
/// \file checks_bitstream.hpp
/// XBF bitstream structural rules (codes BS001..BS011). This is the single
/// home of the rule logic: `bitstream::parse()` and `peekHeader()` route
/// their validation through scanStream()/scanHeader(), so a stream that
/// parses successfully can never lint with errors and vice versa.

#include <cstdint>
#include <optional>
#include <span>

#include "analyze/diagnostic.hpp"
#include "bitstream/parser.hpp"
#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"

namespace prtr::analyze {

/// Result of a structural scan. `frameRuns` (the frames written, in
/// order, as maximal runs) is only meaningful when no error was emitted.
struct StreamScan {
  bool headerValid = false;
  bitstream::Header header{};
  std::vector<bitstream::FrameRun> frameRuns;
};

/// Header-only scan (magic, type, fixed fields). Returns the header when
/// structurally valid; emits BS001..BS003 otherwise.
[[nodiscard]] std::optional<bitstream::Header> scanHeader(
    std::span<const std::uint8_t> bytes, DiagnosticSink& sink);

/// Full structural scan of `bytes` against `device`'s geometry: header,
/// device compatibility, CRC, the complete frame-write walk, and the
/// size-vs-frame-math consistency check.
[[nodiscard]] StreamScan scanStream(std::span<const std::uint8_t> bytes,
                                    const fabric::Device& device,
                                    DiagnosticSink& sink);

/// The checks of scanStream that read no payload byte (BS004, BS005 and
/// BS007..BS010), for a stream given by its header, the frames it writes
/// and its encoded size: bitstream::parse runs them on a built stream's
/// FrameRecipe, so a recipe stream is held to the rules its bytes would be.
[[nodiscard]] StreamScan scanLayout(const bitstream::Header& header,
                                    std::span<const bitstream::FrameRun> runs,
                                    std::uint64_t size,
                                    const fabric::Device& device,
                                    DiagnosticSink& sink);

/// Cross-check: a partial stream's frame range must sit inside one PRR of
/// `floorplan` (BS011). Full streams pass trivially.
void checkStreamFitsFloorplan(const StreamScan& scan,
                              const fabric::Floorplan& floorplan,
                              DiagnosticSink& sink);

}  // namespace prtr::analyze
