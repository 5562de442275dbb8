#pragma once
/// \file memory.hpp
/// Configuration-memory state of one FPGA: frame owners and content and the
/// DONE pin. Partial streams may only be applied while the device is
/// operating (dynamic partial reconfiguration, paper section 2.2).
///
/// A region is loaded whole and a recipe stream's bytes follow from its
/// recipe (bitstream::framePayload), so there is no frame image: disjoint
/// frame runs cover the device, each with its owner and recipe (a write
/// splits the runs it overlaps, O(runs)), and a sparse overlay holds every
/// frame whose bytes do not follow from its run — upset frames and the
/// frames of byte-backed streams. Reading a frame synthesizes that frame.

#include <cstdint>
#include <map>
#include <vector>

#include "bitstream/parser.hpp"
#include "fabric/device.hpp"

namespace prtr::config {

/// Tracks frame ownership and content and the DONE signal.
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

  /// The current configuration content of `frame` (all zeros before any
  /// configuration).
  [[nodiscard]] std::vector<std::uint8_t> frameContent(
      std::uint32_t frame) const;

  /// Flips `mask` bits of byte `offset` within `frame` — a single-event
  /// upset (SEU) injection for scrubbing studies. Does not change the
  /// frame's owner (the upset is silent, as in hardware).
  void injectUpset(std::uint32_t frame, std::uint32_t offset,
                   std::uint8_t mask);

  [[nodiscard]] std::uint64_t upsetsInjected() const noexcept {
    return upsets_;
  }

  /// Rewrites the listed frames with their golden payloads from `stream`
  /// (frames it does not write are skipped) — the frame-granular repair
  /// primitive of the recovery runtime. Owners are left as they are.
  /// Returns the number of frames actually rewritten.
  std::uint64_t repairFrames(const bitstream::ParsedStream& stream,
                             const std::vector<std::uint32_t>& frames);

  /// Frames written by `golden` whose content differs from its payload, in
  /// stream order, or only those among `subset` (sorted). A frame of a run
  /// with `golden`'s own recipe and no overlay entry is clean unread.
  [[nodiscard]] std::vector<std::uint32_t> corruptedFrames(
      const bitstream::ParsedStream& golden,
      const std::vector<std::uint32_t>* subset = nullptr) const;

  /// The validated view of `stream` for this device, memoized on the stream
  /// (bitstream::parse): every node shares one parse per library stream.
  /// It stays valid while the stream lives.
  [[nodiscard]] bitstream::ParsedRef parsedFor(
      const bitstream::Bitstream& stream) const;

 private:
  /// Where a run's bytes come from: the recipe of the stream that wrote it
  /// (framePayload's arguments), or the overlay (`literal`, a byte-backed
  /// stream). `module` is the run's owner either way.
  struct Source {
    std::uint64_t module = 0;
    std::uint32_t regionFirst = 0;
    std::uint32_t framesUsed = 0;
    bool literal = false;

    friend bool operator==(const Source&, const Source&) = default;
  };
  [[nodiscard]] static Source sourceOf(const bitstream::ParsedStream& stream);
  /// The source of the run holding `frame`.
  [[nodiscard]] const Source& sourceAt(std::uint32_t frame) const;
  /// Applies `stream`'s runs and content. Throws ConfigError when a run
  /// exceeds this device's frames.
  void write(const bitstream::ParsedStream& stream);
  void requireFrame(std::uint32_t frame) const;

  const fabric::Device* device_;
  /// First frame -> source of each run, up to the next run's first frame.
  std::map<std::uint32_t, Source> runs_;
  /// Frame -> its whole content, where it does not follow from its run.
  std::map<std::uint32_t, std::vector<std::uint8_t>> overlay_;
  bool done_ = false;
  std::uint64_t framesWritten_ = 0;
  std::uint64_t upsets_ = 0;
};

}  // namespace prtr::config
