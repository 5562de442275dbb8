#pragma once
/// \file memory.hpp
/// Configuration-memory state of one FPGA: which module owns each frame and
/// the DONE pin. Partial streams may only be applied while the device is
/// operating (dynamic/active partial reconfiguration, paper section 2.2);
/// a full stream resets the whole array.
///
/// Frame ownership is a base owner plus per-frame stamped owners: a stream
/// whose one frame run covers the whole device sets the base owner and
/// bumps a 64-bit epoch (O(1), no fill), and a partial stamps the frames it
/// writes with the current epoch. A frame whose stamp is stale belongs to
/// the base owner. The epoch never wraps in practice (2^64 full writes).

#include <cstdint>
#include <span>
#include <vector>

#include "bitstream/parser.hpp"
#include "fabric/device.hpp"

namespace prtr::config {

/// Tracks frame ownership and the DONE signal.
class ConfigMemory {
 public:
  explicit ConfigMemory(const fabric::Device& device);

  [[nodiscard]] const fabric::Device& device() const noexcept { return *device_; }

  /// DONE pin: asserted once the device has been fully configured.
  [[nodiscard]] bool done() const noexcept { return done_; }

  /// Owner (moduleId) of `frame`; 0 before any configuration.
  [[nodiscard]] std::uint64_t frameOwner(std::uint32_t frame) const;

  /// Number of frames written since power-up.
  [[nodiscard]] std::uint64_t framesWritten() const noexcept { return framesWritten_; }

  /// Applies a parsed full stream: every frame rewritten, DONE asserted.
  void applyFull(const bitstream::ParsedStream& stream);

  /// Applies a parsed partial stream. Throws ConfigError when DONE is low
  /// (the device must be operating for dynamic partial reconfiguration).
  void applyPartial(const bitstream::ParsedStream& stream);

  /// Power-cycle: clears all state.
  void reset() noexcept;

  // ---- readback support (configuration scrubbing, SEU repair) ----------

  /// Enables frame-payload retention. Costs totalFrames x frameBytes of
  /// host memory per device, so it is opt-in; must be called before the
  /// streams whose content should be readable are applied.
  void enableReadback();
  [[nodiscard]] bool readbackEnabled() const noexcept { return !image_.empty(); }

  /// Copy of the current configuration content of `frame`.
  /// Requires enableReadback() beforehand.
  [[nodiscard]] std::span<const std::uint8_t> frameContent(
      std::uint32_t frame) const;

  /// Flips `mask` bits of byte `offset` within `frame` — a single-event
  /// upset (SEU) injection for scrubbing studies. Does not change the
  /// frame's owner bookkeeping (the upset is silent, as in hardware).
  void injectUpset(std::uint32_t frame, std::uint32_t offset,
                   std::uint8_t mask);

  [[nodiscard]] std::uint64_t upsetsInjected() const noexcept {
    return upsets_;
  }

  /// Rewrites the listed frames with their golden payloads from `stream`
  /// (which must contain a write for each of them) — the frame-granular
  /// repair primitive of the recovery runtime. Requires enableReadback().
  /// Returns the number of frames actually rewritten.
  std::uint64_t repairFrames(const bitstream::ParsedStream& stream,
                             const std::vector<std::uint32_t>& frames);

  /// The validated view of `stream` for this memory's device. The stream
  /// memoizes it (bitstream::parse), so every node loading the same library
  /// stream shares one parse and one CRC walk per process. The view stays
  /// valid while the stream lives (the bitstream::Library used by the
  /// runtime keeps its streams alive).
  [[nodiscard]] bitstream::ParsedRef parsedFor(
      const bitstream::Bitstream& stream) const;

 private:
  /// Sets the owner of every frame `stream` writes: a whole-device run
  /// moves the base owner, any other run stamps its frames. Throws
  /// ConfigError when a run exceeds this device's frames.
  void writeOwners(const bitstream::ParsedStream& stream);
  void retainPayloads(const bitstream::ParsedStream& stream);

  const fabric::Device* device_;
  std::uint64_t baseOwner_ = 0;  ///< owner of every frame with a stale stamp
  std::uint64_t epoch_ = 1;      ///< bumped by whole-device writes and reset
  std::vector<std::uint64_t> frameOwner_;  ///< valid where stamp == epoch_
  std::vector<std::uint64_t> frameStamp_;
  bool done_ = false;
  std::uint64_t framesWritten_ = 0;
  std::uint64_t upsets_ = 0;
  std::vector<std::uint8_t> image_;  ///< empty unless readback is enabled
};

}  // namespace prtr::config
