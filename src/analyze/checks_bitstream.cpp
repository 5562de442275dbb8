#include "analyze/checks_bitstream.hpp"

#include <algorithm>
#include <string>

#include "util/crc32.hpp"

namespace prtr::analyze {
namespace {

using bitstream::Header;
using bitstream::StreamType;

std::string at(std::size_t offset) {
  return "byte " + std::to_string(offset);
}

std::string hex32(std::uint32_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = "0x";
  for (int shift = 28; shift >= 0; shift -= 4) {
    out += kDigits[(value >> shift) & 0xF];
  }
  return out;
}

std::optional<std::uint32_t> readU32(std::span<const std::uint8_t> bytes,
                                     std::uint64_t offset) {
  if (offset + 4 > bytes.size()) return std::nullopt;
  return static_cast<std::uint32_t>(bytes[offset]) |
         static_cast<std::uint32_t>(bytes[offset + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[offset + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[offset + 3]) << 24;
}

}  // namespace

std::optional<Header> scanHeader(std::span<const std::uint8_t> bytes,
                                 DiagnosticSink& sink) {
  if (bytes.size() < 32) {
    sink.emit("BS001", at(bytes.size()),
              "stream is " + std::to_string(bytes.size()) +
                  " bytes, shorter than the 32-byte XBF header");
    return std::nullopt;
  }
  if (*readU32(bytes, 0) != Header::kMagic) {
    sink.emit("BS002", at(0), "magic word is not 'XBF1'");
    return std::nullopt;
  }
  const std::uint8_t type = bytes[4];
  if (type != static_cast<std::uint8_t>(StreamType::kFull) &&
      type != static_cast<std::uint8_t>(StreamType::kPartial)) {
    sink.emit("BS003", at(4),
              "stream type " + std::to_string(type) + " is neither full (1) "
              "nor partial (2)");
    return std::nullopt;
  }
  Header header;
  header.type = static_cast<StreamType>(type);
  header.deviceTag = *readU32(bytes, 8);
  header.firstFrame = *readU32(bytes, 12);
  header.frameCount = *readU32(bytes, 16);
  header.frameBytes = *readU32(bytes, 20);
  header.moduleId = static_cast<std::uint64_t>(*readU32(bytes, 24)) |
                    static_cast<std::uint64_t>(*readU32(bytes, 28)) << 32;
  return header;
}

namespace {

void checkDeviceTag(const Header& header, const fabric::Device& device,
                    DiagnosticSink& sink) {
  if (header.deviceTag != bitstream::deviceTag(device.name())) {
    sink.emit("BS004", at(8),
              "stream was built for a different device than '" +
                  device.name() + "'");
  }
}

/// The checks after the CRC, none of which reads a payload byte: frame
/// size, then the frame count (full) or the address words (partial), then
/// the size the frame math expects of a `size`-byte stream. `addressAt`
/// returns the address word at a byte offset, nullopt if there is none.
/// Returns the frames written, as runs.
template <class AddressAt>
std::vector<bitstream::FrameRun> scanFrames(const Header& header,
                                            std::uint64_t size,
                                            const fabric::Device& device,
                                            AddressAt addressAt,
                                            DiagnosticSink& sink) {
  std::vector<bitstream::FrameRun> runs;
  const auto& geometry = device.geometry();
  const auto& enc = geometry.encoding();
  if (header.frameBytes != enc.frameBytes) {
    sink.emit("BS005", at(20),
              "stream carries " + std::to_string(header.frameBytes) +
                  "-byte frames but device '" + device.name() + "' uses " +
                  std::to_string(enc.frameBytes) + "-byte frames");
    return runs;  // the payload stride is unknown; the walk would misread
  }

  std::uint64_t offset = 0;
  if (header.type == StreamType::kFull) {
    if (header.frameCount != geometry.totalFrames()) {
      sink.emit("BS007", at(16),
                "full stream carries " + std::to_string(header.frameCount) +
                    " frames but the device has " +
                    std::to_string(geometry.totalFrames()));
      return runs;
    }
    offset = enc.fullOverheadBytes - 4;
    for (std::uint32_t frame = 0; frame < header.frameCount; ++frame) {
      if (offset + enc.frameBytes + 4 > size) {
        sink.emit("BS001", at(offset),
                  "full stream truncated at frame " + std::to_string(frame) +
                      " of " + std::to_string(header.frameCount));
        return runs;
      }
      bitstream::appendFrame(runs, frame);
      offset += enc.frameBytes;
    }
  } else {
    offset = enc.partialOverheadBytes - 4;
    bool monotone = true;
    std::uint32_t previous = 0;
    for (std::uint32_t i = 0; i < header.frameCount; ++i) {
      const std::optional<std::uint32_t> frame = addressAt(offset);
      if (!frame || offset + enc.frameAddressBytes + enc.frameBytes + 4 >
                        size) {
        sink.emit("BS001", at(offset),
                  "partial stream truncated at frame write " +
                      std::to_string(i) + " of " +
                      std::to_string(header.frameCount));
        return runs;
      }
      offset += enc.frameAddressBytes;
      if (*frame >= geometry.totalFrames()) {
        sink.emit("BS008", at(offset - enc.frameAddressBytes),
                  "frame address " + std::to_string(*frame) +
                      " exceeds the device's " +
                      std::to_string(geometry.totalFrames()) + " frames");
      }
      if (i > 0 && monotone && *frame <= previous) {
        monotone = false;
        sink.emit("BS009", at(offset - enc.frameAddressBytes),
                  "frame address " + std::to_string(*frame) +
                      " follows frame " + std::to_string(previous));
      }
      previous = *frame;
      bitstream::appendFrame(runs, *frame);
      offset += enc.frameBytes;
    }
  }
  if (offset + 4 != size) {
    sink.emit("BS010", at(offset),
              "stream is " + std::to_string(size) + " bytes but the "
              "frame math expects " + std::to_string(offset + 4));
  }
  return runs;
}

}  // namespace

StreamScan scanStream(std::span<const std::uint8_t> bytes,
                      const fabric::Device& device, DiagnosticSink& sink) {
  StreamScan scan;
  const std::optional<Header> header = scanHeader(bytes, sink);
  if (!header) return scan;
  scan.headerValid = true;
  scan.header = *header;
  checkDeviceTag(*header, device, sink);
  // CRC over everything but the 4-byte trailer (header scan guaranteed >= 32
  // bytes, so the trailer read cannot fail).
  const std::uint32_t expected = *readU32(bytes, bytes.size() - 4);
  const std::uint32_t actual =
      util::Crc32::of(bytes.subspan(0, bytes.size() - 4));
  if (expected != actual) {
    sink.emit("BS006", at(bytes.size() - 4),
              "stored CRC " + hex32(expected) +
                  " does not match the stream contents (computed " +
                  hex32(actual) + ")");
  }
  scan.frameRuns = scanFrames(
      *header, bytes.size(), device,
      [bytes](std::uint64_t offset) { return readU32(bytes, offset); }, sink);
  return scan;
}

StreamScan scanLayout(const Header& header,
                      std::span<const bitstream::FrameRun> runs,
                      std::uint64_t size, const fabric::Device& device,
                      DiagnosticSink& sink) {
  StreamScan scan;
  scan.headerValid = true;
  scan.header = header;
  checkDeviceTag(header, device, sink);
  // The address words, in order, are the frames of `runs`.
  std::size_t run = 0;
  std::uint32_t taken = 0;
  const auto nextAddress = [&](std::uint64_t) -> std::optional<std::uint32_t> {
    while (run < runs.size() && taken == runs[run].count) {
      ++run;
      taken = 0;
    }
    if (run == runs.size()) return std::nullopt;
    return runs[run].first + taken++;
  };
  scan.frameRuns = scanFrames(header, size, device, nextAddress, sink);
  return scan;
}

void checkStreamFitsFloorplan(const StreamScan& scan,
                              const fabric::Floorplan& floorplan,
                              DiagnosticSink& sink) {
  if (!scan.headerValid || scan.header.type != StreamType::kPartial ||
      scan.frameRuns.empty()) {
    return;
  }
  std::uint32_t lowest = scan.frameRuns.front().first;
  std::uint32_t highest = lowest;
  for (const bitstream::FrameRun& run : scan.frameRuns) {
    lowest = std::min(lowest, run.first);
    highest = std::max(highest, run.first + run.count - 1);
  }
  const fabric::Device& device = floorplan.device();
  for (const fabric::Region& prr : floorplan.prrs()) {
    const fabric::FrameRange range = prr.frames(device);
    if (range.contains(lowest) && range.contains(highest)) return;
  }
  sink.emit("BS011", "frames [" + std::to_string(lowest) + ", " +
                         std::to_string(highest) + "]",
            "partial stream touches frames outside every PRR of the "
            "floorplan");
}

}  // namespace prtr::analyze
