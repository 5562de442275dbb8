#pragma once
/// \file builder.hpp
/// Bitstream generation: full-device streams, module-based partial streams
/// (all frames of a region, fixed size), and difference-based partial
/// streams (only the frames that differ between two module images, variable
/// size) — the two Xilinx flows compared in paper section 2.2.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "bitstream/format.hpp"
#include "fabric/device.hpp"
#include "fabric/region.hpp"

namespace prtr::bitstream {

/// Identifies a module implementation placed into a region. `moduleId` 0 is
/// reserved for the empty/baseline image of a region.
using ModuleId = std::uint64_t;

/// Deterministic synthetic payload of frame `frame` when module `module`
/// (with `framesUsed` occupied frames starting at the region base) is
/// placed into a region beginning at `regionFirstFrame`: a one-frame
/// writeFramePayloads, or all zeros for an unoccupied frame or module 0.
///
/// Determinism contract: an occupied frame seeds its own
/// `util::Rng{module * 0x100000001b3 ^ frame}` and takes one draw per byte;
/// when that draw is below 2^62 (probability 1/4), the next draw's low byte
/// `| 1` is the byte, else the byte is 0. Every stream's bytes and CRC
/// follow from this sequence, so a change to it changes all of them (and
/// the FNV-1a pins in tests/bitstream_test.cpp).
[[nodiscard]] std::vector<std::uint8_t> framePayload(ModuleId module,
                                                     std::uint32_t regionFirstFrame,
                                                     std::uint32_t framesUsed,
                                                     std::uint32_t frame,
                                                     std::uint32_t frameBytes);

/// Writes the payloads of the `count` occupied frames `firstFrame`,
/// `firstFrame + 1`, ... of `module` into `out`, frame i at
/// `out[i * stride, i * stride + frameBytes)`. Only the non-zero content
/// bytes are stored, so those ranges must be zero on entry; bytes between
/// frames are never touched. Module 0 writes nothing. On x86 CPUs with AVX2
/// an eight-lane kernel synthesizes eight frames per step; elsewhere, and
/// for fewer than four frames, the scalar loop runs. Both write the same
/// bytes (the framePayload contract).
void writeFramePayloads(ModuleId module, std::uint32_t firstFrame,
                        std::uint32_t count, std::uint32_t frameBytes,
                        std::span<std::uint8_t> out, std::size_t stride);

namespace detail {

/// The scalar loop, one frame and one draw at a time: writeFramePayloads'
/// fallback on CPUs without AVX2, and the reference its kernel is tested
/// against.
void writeFramePayloadsScalar(ModuleId module, std::uint32_t firstFrame,
                              std::uint32_t count, std::uint32_t frameBytes,
                              std::span<std::uint8_t> out, std::size_t stride);

/// Whether writeFramePayloads runs the AVX2 kernel on this CPU.
[[nodiscard]] bool framePayloadsVectorized() noexcept;

/// Receives one block of a recipe stream's frame section: the encoded
/// frames `first`, `first + 1`, ... `first + frames - 1` (address words
/// included in a partial stream), valid only during the call.
using FrameBlockVisitor = std::function<void(
    std::span<const std::uint8_t> block, std::uint32_t first,
    std::uint32_t frames)>;

/// Synthesizes the frames of `runs` for a stream with `header`, whose
/// payloads follow the FrameRecipe rule for (`regionFirst`, `framesUsed`),
/// in stream order, into one reused L1-sized block at a time. No block
/// spans two runs. Each call adds the frames it wrote to the
/// host.bitstream.frames_synthesized histogram (one observation per call),
/// as the compare pass of Builder::buildDifferencePartial adds both images.
void synthesizeFrames(const Header& header, std::span<const FrameRun> runs,
                      std::uint32_t regionFirst, std::uint32_t framesUsed,
                      const FrameBlockVisitor& visit);

/// The CRC-32 of a recipe stream's bytes before the trailer, by one fused
/// pass: the header block, then synthesizeFrames folding each block into
/// the CRC. Ignores `recipe.crc` (Bitstream::crc() consults it first).
[[nodiscard]] std::uint32_t synthesizeCrc(const Header& header,
                                          const FrameRecipe& recipe);

/// The encoded bytes of a recipe stream (Bitstream::bytes()), synthesized
/// in a pass of their own. Throws BitstreamError unless their CRC equals
/// `expectedCrc`.
[[nodiscard]] std::vector<std::uint8_t> materialize(const Header& header,
                                                    const FrameRecipe& recipe,
                                                    std::uint32_t expectedCrc);

}  // namespace detail

/// Builds bitstreams against one device's geometry, as recipes that keep
/// no payload byte (format.hpp). A full or module partial build is
/// O(header + runs) and synthesizes no frame: its CRC waits for
/// Bitstream::crc(). A difference partial synthesizes both module images
/// once, an L1-sized block at a time, to find its changed frames, and
/// keeps the CRC that pass computes.
class Builder {
 public:
  explicit Builder(const fabric::Device& device) : device_(&device) {}

  /// Full-device stream configuring every frame; `designId` identifies the
  /// overall design (static + initial modules).
  [[nodiscard]] Bitstream buildFull(ModuleId designId) const;

  /// Module-based partial stream: every frame of `region`, regardless of
  /// how much of the region the module occupies (fixed size per region).
  /// `occupancy` in (0,1] scales the frames whose payload is non-baseline.
  [[nodiscard]] Bitstream buildModulePartial(const fabric::Region& region,
                                             ModuleId module,
                                             double occupancy = 1.0) const;

  /// Difference-based partial stream from `fromModule` to `toModule` in
  /// `region`: only frames whose payload differs (variable size).
  [[nodiscard]] Bitstream buildDifferencePartial(const fabric::Region& region,
                                                 ModuleId fromModule,
                                                 double fromOccupancy,
                                                 ModuleId toModule,
                                                 double toOccupancy) const;

 private:
  [[nodiscard]] std::uint32_t usedFrames(const fabric::Region& region,
                                         double occupancy) const;
  /// The stream of `header` and `recipe`, with the header block length
  /// filled in and the CRC left unset: nothing is synthesized.
  [[nodiscard]] static Bitstream fromRecipe(const Header& header,
                                            FrameRecipe recipe,
                                            std::uint32_t overheadBytes);

  const fabric::Device* device_;
};

}  // namespace prtr::bitstream
