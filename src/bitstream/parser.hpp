#pragma once
/// \file parser.hpp
/// Structural validation and decoding of XBF streams, mirroring the checks
/// of a real configuration controller (and the Cray API, vendor_api.hpp).
/// A parse keeps no payload byte: forEachPayload slices a byte stream's
/// bytes or synthesizes a recipe stream's frames on every read.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "bitstream/compress.hpp"
#include "bitstream/format.hpp"
#include "fabric/device.hpp"

namespace prtr::bitstream {

/// Receives one frame write: the frame and its payload.
using PayloadVisitor = std::function<void(
    std::uint32_t frame, std::span<const std::uint8_t> payload)>;
/// Picks the frame writes a payload read visits.
using FrameFilter = std::function<bool(std::uint32_t frame)>;

/// Parsed view over a validated stream. A byte stream's view is
/// non-owning: its bytes must outlive it.
struct ParsedStream {
  Header header;
  /// The frames written, in order, as maximal consecutive runs (a full
  /// stream or a library partial is one run), so configuration memory
  /// applies a stream with one bounds check and one owner run per run.
  std::vector<FrameRun> frameRuns;
  /// A byte stream's bytes; write i's payload starts at
  /// `payloadOffset + i * payloadStride`. Empty for a recipe stream, whose
  /// payloads follow from header.moduleId, `regionFirst` and `framesUsed`
  /// (FrameRecipe).
  std::span<const std::uint8_t> bytes;
  std::size_t payloadOffset = 0;
  std::size_t payloadStride = 0;
  std::uint32_t regionFirst = 0;
  std::uint32_t framesUsed = 0;
  /// The stream's MFW plan, published by the first planMfw (compress.hpp).
  Memo<MfwPlan> mfw;

  /// Calls `visit(frame, payload)` for every frame write, in stream order,
  /// or only for the writes to the frames `wanted` accepts when it is
  /// given. A byte stream's payloads are slices of its bytes; a recipe
  /// stream synthesizes the visited frames a block at a time and keeps none
  /// (each payload is valid during its visit only).
  void forEachPayload(const PayloadVisitor& visit,
                      const FrameFilter& wanted = {}) const;
};

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
/// successful parse of a Bitstream object publishes its ParsedStream with
/// the stream; every later call with an equivalent device gets that same
/// view back, from any thread, without taking a lock.
///
/// A byte-backed stream is scanned in full (analyze::scanStream, the CRC
/// included) and its view points into its bytes. A recipe stream (every
/// stream Builder makes) is checked from its header, frame runs and size
/// (analyze::scanLayout) and reads no payload byte: its CRC was computed
/// from the same synthesis its payloads come from.
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
