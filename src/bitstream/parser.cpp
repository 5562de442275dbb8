#include "bitstream/parser.hpp"

#include "analyze/checks_bitstream.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {

/// A published parse and the device it was validated against.
struct ParseMemoEntry {
  /// Everything analyze::scanStream reads from the device.
  struct DeviceKey {
    std::uint32_t tag = 0;
    std::uint32_t totalFrames = 0;
    fabric::DeviceGeometry::Encoding encoding;

    friend bool operator==(const DeviceKey&, const DeviceKey&) = default;
  };

  DeviceKey key;
  ParsedStream parsed;
};

void ParseMemo::reset(const ParseMemoEntry* next) noexcept {
  delete entry.exchange(next, std::memory_order_acq_rel);
}

namespace {

ParseMemoEntry::DeviceKey keyOf(const fabric::Device& device) {
  const auto& geometry = device.geometry();
  return {deviceTag(device.name()), geometry.totalFrames(),
          geometry.encoding()};
}

}  // namespace

// Both entry points delegate to the analyze scanners so the parser and
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
  if (sink.hasErrors()) {
    throw util::BitstreamError{"XBF: " + sink.firstError().format()};
  }
  ParsedStream out;
  out.header = scan.header;
  out.writes = std::move(scan.writes);
  out.frameRuns = frameRunsOf(out.writes);
  return out;
}

std::vector<FrameRun> frameRunsOf(std::span<const FrameWrite> writes) {
  std::vector<FrameRun> runs;
  for (const FrameWrite& write : writes) {
    if (!runs.empty() &&
        std::uint64_t{runs.back().first} + runs.back().count == write.frame) {
      ++runs.back().count;
    } else {
      runs.push_back(FrameRun{write.frame, 1});
    }
  }
  return runs;
}

ParsedRef parse(const Bitstream& stream, const fabric::Device& device) {
  const ParseMemoEntry::DeviceKey key = keyOf(device);
  const std::span<const std::uint8_t> bytes{stream.bytes()};
  std::atomic<const ParseMemoEntry*>& slot = stream.memo_.entry;
  const ParseMemoEntry* memo = slot.load(std::memory_order_acquire);
  if (memo == nullptr) {
    // First parse: validate without a lock (a throw publishes nothing),
    // then publish; a racing loader that published first wins.
    auto fresh = std::make_unique<ParseMemoEntry>(
        ParseMemoEntry{key, parse(bytes, device)});
    if (slot.compare_exchange_strong(memo, fresh.get(),
                                     std::memory_order_acq_rel,
                                     std::memory_order_acquire)) {
      return ParsedRef{fresh.release()->parsed};
    }
    if (memo->key != key) {
      return ParsedRef{
          std::make_unique<const ParsedStream>(std::move(fresh->parsed))};
    }
  } else if (memo->key != key) {
    return ParsedRef{std::make_unique<const ParsedStream>(parse(bytes, device))};
  }
  return ParsedRef{memo->parsed};
}

}  // namespace prtr::bitstream
