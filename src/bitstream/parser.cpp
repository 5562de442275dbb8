#include "bitstream/parser.hpp"

#include <algorithm>

#include "analyze/checks_bitstream.hpp"
#include "bitstream/builder.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {

/// A published parse and the device it was validated against.
struct ParseMemoEntry {
  /// Everything the parse reads from the device.
  struct DeviceKey {
    std::uint32_t tag = 0;
    std::uint32_t totalFrames = 0;
    fabric::DeviceGeometry::Encoding encoding;

    friend bool operator==(const DeviceKey&, const DeviceKey&) = default;
  };

  DeviceKey key;
  ParsedStream parsed;
};

template <>
void Memo<ParseMemoEntry>::reset(const ParseMemoEntry* next) noexcept {
  delete slot_.exchange(next, std::memory_order_acq_rel);
}

namespace {

ParseMemoEntry::DeviceKey keyOf(const fabric::Device& device) {
  const auto& geometry = device.geometry();
  return {deviceTag(device.name()), geometry.totalFrames(),
          geometry.encoding()};
}

/// Throws the first error-severity diagnostic of `sink`, if any.
void throwOnError(const analyze::DiagnosticSink& sink) {
  if (sink.hasErrors()) {
    throw util::BitstreamError{"XBF: " + sink.firstError().format()};
  }
}

/// A recipe stream's parse: its layout checked, no payload read.
ParsedStream parseRecipe(const Bitstream& stream, const FrameRecipe& recipe,
                         const fabric::Device& device) {
  analyze::DiagnosticSink sink;
  analyze::StreamScan scan = analyze::scanLayout(
      stream.header(), recipe.runs, stream.size().count(), device, sink);
  throwOnError(sink);
  ParsedStream out;
  out.header = scan.header;
  out.frameRuns = std::move(scan.frameRuns);
  out.regionFirst = recipe.regionFirst;
  out.framesUsed = recipe.framesUsed;
  return out;
}

}  // namespace

// Every entry point delegates to the analyze scanners so the parser and
// prtr-lint can never disagree about what makes a stream malformed; the
// first error-severity diagnostic becomes the thrown BitstreamError.

Header peekHeader(std::span<const std::uint8_t> bytes) {
  analyze::DiagnosticSink sink;
  const auto header = analyze::scanHeader(bytes, sink);
  if (!header) throw util::BitstreamError{"XBF: " + sink.firstError().format()};
  return *header;
}

ParsedStream parse(std::span<const std::uint8_t> bytes,
                   const fabric::Device& device) {
  analyze::DiagnosticSink sink;
  analyze::StreamScan scan = analyze::scanStream(bytes, device, sink);
  throwOnError(sink);
  const auto& enc = device.geometry().encoding();
  ParsedStream out;
  out.header = scan.header;
  out.frameRuns = std::move(scan.frameRuns);
  out.bytes = bytes;
  if (out.header.type == StreamType::kFull) {
    out.payloadOffset = enc.fullOverheadBytes - 4;
    out.payloadStride = enc.frameBytes;
  } else {
    out.payloadOffset = enc.partialOverheadBytes - 4 + enc.frameAddressBytes;
    out.payloadStride = std::size_t{enc.frameAddressBytes} + enc.frameBytes;
  }
  return out;
}

void ParsedStream::forEachPayload(const PayloadVisitor& visit,
                                  const FrameFilter& wanted) const {
  // A byte stream's payloads are visited in place; a recipe stream's
  // wanted frames are gathered into runs and synthesized.
  std::vector<FrameRun> runs;
  std::size_t at = payloadOffset;
  for (const FrameRun& run : frameRuns) {
    for (std::uint32_t frame = run.first; frame - run.first < run.count;
         ++frame, at += payloadStride) {
      if (wanted && !wanted(frame)) continue;
      if (bytes.empty()) {
        appendFrame(runs, frame);
      } else {
        visit(frame, bytes.subspan(at, header.frameBytes));
      }
    }
  }
  if (!bytes.empty() || runs.empty()) return;
  const std::size_t address =
      header.type == StreamType::kPartial ? kFrameAddressBytes : 0;
  detail::synthesizeFrames(
      header, runs, regionFirst, framesUsed,
      [&](std::span<const std::uint8_t> block, std::uint32_t first,
          std::uint32_t frames) {
        for (std::uint32_t i = 0; i < frames; ++i) {
          visit(first + i,
                block.subspan(i * (header.frameBytes + address) + address,
                              header.frameBytes));
        }
      });
}

ParsedRef parse(const Bitstream& stream, const fabric::Device& device) {
  const ParseMemoEntry::DeviceKey key = keyOf(device);
  const auto uncached = [&] {
    return stream.recipe_ ? parseRecipe(stream, *stream.recipe_, device)
                          : parse(std::span{stream.bytes_}, device);
  };
  const ParseMemoEntry* memo = stream.memo_.get();
  if (memo == nullptr) {
    // First parse: validate without a lock (a throw publishes nothing),
    // then publish; a racing parse that published first wins.
    memo = &stream.memo_.publish(std::make_unique<const ParseMemoEntry>(
        ParseMemoEntry{key, uncached()}));
  }
  if (memo->key == key) return ParsedRef{memo->parsed};
  return ParsedRef{std::make_unique<const ParsedStream>(uncached())};
}

}  // namespace prtr::bitstream
