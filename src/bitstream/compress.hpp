#pragma once
/// \file compress.hpp
/// Bitstream compression. Two cooperating mechanisms, both standard in the
/// partial-reconfiguration literature the paper builds on:
///
///  * **Byte-level zero-run codec** ("ZRL"): configuration frames are
///    mostly zero bytes; runs of zeros encode as a two/three-byte token.
///    Shrinks the stream *on the wire* (host memory, HyperTransport), so
///    a shared-channel download steals less bandwidth from payload data.
///
///  * **Frame-level multi-frame write ("MFW")**: when several frames of a
///    partial stream carry identical payloads (erased fabric, replicated
///    logic), the configuration port can write the payload once and replay
///    it to many addresses. Unlike wire compression this cuts the *ICAP
///    time itself*, which is the bottleneck of the measured path.
///
/// Both are lossless; round-trips are property-tested.

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/format.hpp"
#include "fabric/device.hpp"
#include "util/units.hpp"

namespace prtr::bitstream {

// ---- byte-level zero-run codec -----------------------------------------

/// Compresses `data` with the ZRL codec.
[[nodiscard]] std::vector<std::uint8_t> zrlCompress(
    std::span<const std::uint8_t> data);

/// Decompresses a ZRL stream; throws BitstreamError on malformed input.
[[nodiscard]] std::vector<std::uint8_t> zrlDecompress(
    std::span<const std::uint8_t> data);

/// compressed size / original size for `data` (1.0 = incompressible).
[[nodiscard]] double zrlRatio(std::span<const std::uint8_t> data);

// ---- frame-level multi-frame write -------------------------------------

/// MFW analysis of one partial stream.
struct MfwPlan {
  std::uint32_t totalFrames = 0;
  std::uint32_t uniqueFrames = 0;   ///< distinct payloads actually written
  util::Bytes wireBytes{};          ///< header + unique payloads + addresses
  util::Bytes rawBytes{};           ///< original stream size

  [[nodiscard]] double frameDedupRatio() const noexcept {
    return totalFrames ? static_cast<double>(uniqueFrames) /
                             static_cast<double>(totalFrames)
                       : 1.0;
  }
};

/// Builds the MFW plan for a partial `stream` on `device`: groups frames by
/// identical payload. The plan is memoized with the stream's parse
/// (bitstream::parse), so a stream is grouped once per process and device.
[[nodiscard]] MfwPlan planMfw(const Bitstream& stream,
                              const fabric::Device& device);

/// ICAP drain time under MFW: unique payloads stream at the port rate,
/// repeated frames cost only an address/command word each.
/// `payloadTimePerFrame` and `addressTime` come from the controller model.
[[nodiscard]] util::Time mfwDrainTime(const MfwPlan& plan,
                                      util::Time payloadTimePerFrame,
                                      util::Time addressTime);

}  // namespace prtr::bitstream
