#pragma once
/// \file format.hpp
/// "XBF" — the synthetic bitstream encoding used by this library.
///
/// Real Xilinx bitstreams are opaque command streams; what matters to the
/// paper is their *size* (configuration time = size / port throughput) and
/// their structure (full streams write every frame sequentially; partial
/// streams carry per-frame addresses). XBF mirrors exactly that:
///
///   full:    [header: fullOverhead-4 bytes][frame payloads][crc32]
///   partial: [header: partialOverhead-4 bytes][{addr,payload}...][crc32]
///
/// Header fields live at the front of the header block; the remainder is
/// zero padding standing in for the command preamble of a real stream.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "fabric/geometry.hpp"
#include "util/units.hpp"

namespace prtr::fabric {
class Device;
}  // namespace prtr::fabric

namespace prtr::bitstream {

class ParsedRef;
struct ParseMemoEntry;  // defined in parser.cpp

/// Stream type discriminator.
enum class StreamType : std::uint8_t { kFull = 1, kPartial = 2 };

[[nodiscard]] const char* toString(StreamType type) noexcept;

/// Decoded header fields (see format description above).
struct Header {
  static constexpr std::uint32_t kMagic = 0x58424631;  // "XBF1"

  StreamType type = StreamType::kFull;
  std::uint32_t deviceTag = 0;    ///< CRC-32 of the device name
  std::uint32_t firstFrame = 0;   ///< first frame index (partial only)
  std::uint32_t frameCount = 0;   ///< frames carried
  std::uint32_t frameBytes = 0;   ///< payload bytes per frame
  std::uint64_t moduleId = 0;     ///< identity of the configured design
};

/// Holds the parse a Bitstream publishes on its first successful
/// bitstream::parse (see parser.hpp). The published view points into the
/// stream's bytes, so a copy starts empty and a move carries the view along
/// with the buffer it points into.
class ParseMemo {
 public:
  ParseMemo() noexcept = default;
  ParseMemo(const ParseMemo& /*other*/) noexcept {}
  ParseMemo(ParseMemo&& other) noexcept
      : entry(other.entry.exchange(nullptr, std::memory_order_relaxed)) {}
  ParseMemo& operator=(const ParseMemo& other) noexcept {
    if (this != &other) reset(nullptr);
    return *this;
  }
  ParseMemo& operator=(ParseMemo&& other) noexcept {
    if (this != &other) {
      reset(other.entry.exchange(nullptr, std::memory_order_relaxed));
    }
    return *this;
  }
  ~ParseMemo() { reset(nullptr); }

  /// Written once, by the first successful parse; read with acquire loads.
  std::atomic<const ParseMemoEntry*> entry{nullptr};

 private:
  void reset(const ParseMemoEntry* next) noexcept;
};

/// An encoded bitstream plus its decoded identity.
class Bitstream {
 public:
  Bitstream(Header header, std::vector<std::uint8_t> bytes)
      : header_(header), bytes_(std::move(bytes)) {}

  [[nodiscard]] const Header& header() const noexcept { return header_; }
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] util::Bytes size() const noexcept {
    return util::Bytes{bytes_.size()};
  }
  [[nodiscard]] bool isPartial() const noexcept {
    return header_.type == StreamType::kPartial;
  }

 private:
  friend ParsedRef parse(const Bitstream& stream, const fabric::Device& device);

  Header header_;
  std::vector<std::uint8_t> bytes_;
  mutable ParseMemo memo_;
};

/// CRC-32 tag for a device name, stored in headers for compatibility checks.
[[nodiscard]] std::uint32_t deviceTag(const std::string& deviceName) noexcept;

}  // namespace prtr::bitstream
