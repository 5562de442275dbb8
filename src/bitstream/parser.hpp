#pragma once
/// \file parser.hpp
/// Structural validation and decoding of XBF streams. The configuration
/// engine parses every stream before applying it, mirroring the checks a
/// real configuration controller performs (and the ones the Cray API layers
/// on top — see config/vendor_api.hpp).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bitstream/format.hpp"
#include "fabric/device.hpp"

namespace prtr::bitstream {

/// A decoded frame write.
struct FrameWrite {
  std::uint32_t frame = 0;
  std::span<const std::uint8_t> payload;
};

/// A maximal run of consecutive frames written by one stream:
/// frames [first, first + count).
struct FrameRun {
  std::uint32_t first = 0;
  std::uint32_t count = 0;

  friend bool operator==(const FrameRun&, const FrameRun&) = default;
};

/// Parsed view over a validated stream. Non-owning: the underlying byte
/// buffer must outlive the view.
struct ParsedStream {
  Header header;
  std::vector<FrameWrite> writes;
  /// `writes`' frame addresses, in order, as maximal consecutive runs (a
  /// full stream or a library partial is one run). Built once by parse()
  /// and memoized with the stream, so configuration memory applies a
  /// stream with one bounds check and one fill per run.
  std::vector<FrameRun> frameRuns;
};

/// Coalesces `writes`' frame addresses, in order, into maximal runs of
/// consecutive frames.
[[nodiscard]] std::vector<FrameRun> frameRunsOf(
    std::span<const FrameWrite> writes);

/// Parses and validates `bytes` against `device`'s geometry.
/// Throws BitstreamError on: bad magic, unknown type, device mismatch,
/// truncated data, out-of-range frame addresses, or CRC failure.
[[nodiscard]] ParsedStream parse(std::span<const std::uint8_t> bytes,
                                 const fabric::Device& device);

/// A validated view of a Bitstream, as returned by parse(const Bitstream&).
/// It points either at the stream's memo or at a parse it owns; either way
/// it stays valid while the stream lives and is not assigned to.
class ParsedRef {
 public:
  explicit ParsedRef(const ParsedStream& memo) noexcept : view_(&memo) {}
  explicit ParsedRef(std::unique_ptr<const ParsedStream> owned) noexcept
      : owned_(std::move(owned)), view_(owned_.get()) {}

  [[nodiscard]] const ParsedStream& operator*() const noexcept { return *view_; }
  [[nodiscard]] const ParsedStream* operator->() const noexcept { return view_; }

 private:
  std::unique_ptr<const ParsedStream> owned_;
  const ParsedStream* view_ = nullptr;
};

/// Validates an immutable stream once per process and device. The first
/// successful parse of a Bitstream object publishes its ParsedStream next
/// to the bytes it views; every later call with an equivalent device gets
/// that same view back, from any thread, without taking a lock.
///
/// Lifetime: the memo lives as long as the Bitstream and dies with it. A
/// copied Bitstream starts with an empty memo (its view must point into its
/// own bytes); a moved one keeps it.
///
/// Device key: the memo is keyed on everything the parse reads from the
/// device: the name tag, the total frame count, and the encoding's frame,
/// full/partial overhead and frame-address bytes. A call with a device that
/// differs in any of them parses uncached into a view the ParsedRef owns,
/// and never replaces the memo, so views already handed out stay valid.
///
/// Failures are never memoized: an invalid stream throws BitstreamError on
/// every call. Concurrent first calls may each parse; the first to publish
/// wins and the others return its view.
[[nodiscard]] ParsedRef parse(const Bitstream& stream,
                              const fabric::Device& device);

/// Cheap header-only peek (no CRC walk); used by size/type checks.
[[nodiscard]] Header peekHeader(std::span<const std::uint8_t> bytes);

}  // namespace prtr::bitstream
