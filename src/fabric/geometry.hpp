#pragma once
/// \file geometry.hpp
/// Column/frame configuration-memory geometry in the style of the Xilinx
/// Virtex-II family: the configuration memory is organized as columns, each
/// containing a column-kind-dependent number of frames, and the frame is the
/// smallest addressable (re)configuration unit (paper section 2.2).
///
/// Bitstream sizes are a pure function of this geometry, so the device
/// catalog (device.hpp) calibrates it to reproduce the sizes of the paper's
/// Table 2. See DESIGN.md "Calibration constants".

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fabric/resources.hpp"
#include "util/units.hpp"

namespace prtr::fabric {

/// Kinds of configuration columns (Virtex-II style).
enum class ColumnKind : std::uint8_t {
  kClb,               ///< CLB logic column
  kBramPair,          ///< BRAM content + its interconnect column
  kIob,               ///< I/O block column
  kGclk,              ///< global clock column
  kPpc,               ///< hard PowerPC region (configured but not user fabric)
};

[[nodiscard]] const char* toString(ColumnKind kind) noexcept;

/// Per-kind frame counts and fabric resources.
struct ColumnSpec {
  ColumnKind kind = ColumnKind::kClb;
  std::uint32_t frames = 0;      ///< frames in this column
  ResourceVec resources{};       ///< user fabric contributed by this column
};

/// Frame index range [first, first+count) in global frame numbering.
struct FrameRange {
  std::uint32_t first = 0;
  std::uint32_t count = 0;

  [[nodiscard]] constexpr std::uint32_t end() const noexcept { return first + count; }
  [[nodiscard]] constexpr bool contains(std::uint32_t frame) const noexcept {
    return frame >= first && frame < end();
  }
  [[nodiscard]] constexpr bool overlaps(FrameRange other) const noexcept {
    return first < other.end() && other.first < end();
  }
  friend constexpr bool operator==(FrameRange, FrameRange) noexcept = default;
};

/// Immutable configuration-memory geometry of one device.
class DeviceGeometry {
 public:
  /// Byte-size constants of the on-disk/wire bitstream encoding (format.hpp).
  struct Encoding {
    std::uint32_t frameBytes = 1060;        ///< payload bytes per frame
    std::uint32_t fullOverheadBytes = 1004; ///< full-stream header+commands+CRC
    std::uint32_t partialOverheadBytes = 68;///< partial-stream header+CRC
    std::uint32_t frameAddressBytes = 4;    ///< per-frame address word (partial)

    friend bool operator==(const Encoding&, const Encoding&) = default;
  };

  DeviceGeometry(std::string name, std::uint32_t rows,
                 std::vector<ColumnSpec> columns, Encoding encoding);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::uint32_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::span<const ColumnSpec> columns() const noexcept { return columns_; }
  [[nodiscard]] const Encoding& encoding() const noexcept { return encoding_; }

  [[nodiscard]] std::size_t columnCount() const noexcept { return columns_.size(); }
  [[nodiscard]] std::uint32_t totalFrames() const noexcept { return totalFrames_; }

  /// Frames contributed by column `index`.
  [[nodiscard]] FrameRange columnFrames(std::size_t index) const;

  /// Frames covered by the half-open column range [firstColumn, firstColumn+n).
  [[nodiscard]] FrameRange columnRangeFrames(std::size_t firstColumn,
                                             std::size_t columnCount) const;

  /// Fabric resources in a column range.
  [[nodiscard]] ResourceVec columnRangeResources(std::size_t firstColumn,
                                                 std::size_t columnCount) const;

  /// Count of columns of `kind` in a column range.
  [[nodiscard]] std::uint32_t countKind(std::size_t firstColumn,
                                        std::size_t columnCount,
                                        ColumnKind kind) const;

  /// Byte size of a full-device configuration bitstream.
  [[nodiscard]] util::Bytes fullBitstreamBytes() const noexcept;

  /// Byte size of a module-based partial bitstream covering `frames` frames
  /// (includes per-frame addressing; paper section 2.2: fixed size for all
  /// modules of a region).
  [[nodiscard]] util::Bytes partialBitstreamBytes(std::uint32_t frames) const noexcept;

 private:
  std::string name_;
  std::uint32_t rows_;
  std::vector<ColumnSpec> columns_;
  Encoding encoding_;
  std::vector<std::uint32_t> frameStart_;  ///< prefix sums per column
  std::uint32_t totalFrames_ = 0;
};

}  // namespace prtr::fabric
