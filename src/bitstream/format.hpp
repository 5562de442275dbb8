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
///
/// The bytes of a built stream are a materialization of its FrameRecipe:
/// the header, the frames written and how their payloads follow from frame
/// geometry. A built stream keeps only that recipe; the simulator reads
/// sizes and frame runs, and payloads, bytes and (for full and module
/// streams) the CRC exist only where something asks for them (export,
/// relocation, byte-level linting).

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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

  friend bool operator==(const Header&, const Header&) = default;
};

/// A maximal run of consecutive frames written by one stream:
/// frames [first, first + count).
struct FrameRun {
  std::uint32_t first = 0;
  std::uint32_t count = 0;

  friend bool operator==(const FrameRun&, const FrameRun&) = default;
};

/// Appends `frame` to `runs`: extends the last run when `frame` follows it,
/// else starts a new one.
inline void appendFrame(std::vector<FrameRun>& runs, std::uint32_t frame) {
  if (!runs.empty() &&
      std::uint64_t{runs.back().first} + runs.back().count == frame) {
    ++runs.back().count;
  } else {
    runs.push_back(FrameRun{frame, 1});
  }
}

/// A value an object computes on first use and publishes with a CAS: the
/// first thread to publish wins, and every later get() returns its value
/// from any thread without a lock. A copy starts empty (the value may point
/// into the source object); a move carries the value along.
template <class T>
class Memo {
 public:
  Memo() noexcept = default;
  Memo(const Memo& /*other*/) noexcept {}
  Memo(Memo&& other) noexcept
      : slot_(other.slot_.exchange(nullptr, std::memory_order_relaxed)) {}
  Memo& operator=(const Memo& other) noexcept {
    if (this != &other) reset(nullptr);
    return *this;
  }
  Memo& operator=(Memo&& other) noexcept {
    if (this != &other) {
      reset(other.slot_.exchange(nullptr, std::memory_order_relaxed));
    }
    return *this;
  }
  ~Memo() { reset(nullptr); }

  /// The published value, or null before the first publish().
  [[nodiscard]] const T* get() const noexcept {
    return slot_.load(std::memory_order_acquire);
  }

  /// Publishes `fresh` unless a value is already published; returns the
  /// published value either way.
  const T& publish(std::unique_ptr<const T> fresh) const {
    const T* published = nullptr;
    if (slot_.compare_exchange_strong(published, fresh.get(),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      return *fresh.release();
    }
    return *published;
  }

 private:
  void reset(const T* next) noexcept;

  mutable std::atomic<const T*> slot_{nullptr};
};

template <class T>
void Memo<T>::reset(const T* next) noexcept {
  delete slot_.exchange(next, std::memory_order_acq_rel);
}

// ParseMemoEntry is complete only in parser.cpp, which deletes it.
template <>
void Memo<ParseMemoEntry>::reset(const ParseMemoEntry* next) noexcept;

/// Bytes of the address word before each frame of a built partial stream.
inline constexpr std::uint32_t kFrameAddressBytes = 4;

/// How a built stream's bytes follow from frame geometry. The stream writes
/// the frames of `runs`, in order; frame f carries
/// framePayload(header.moduleId, regionFirst, framesUsed, f) (builder.hpp),
/// after its address word in a partial stream. The header block is
/// `headerBytes` long. `crc`, the CRC-32 of everything before the trailer,
/// is set when it is known without synthesizing the stream: a difference
/// partial computes it while finding its changed frames, and a hand-made
/// recipe may state one. Full and module partials leave it unset, and
/// Bitstream::crc() computes it on first demand.
struct FrameRecipe {
  std::uint32_t regionFirst = 0;  ///< first frame of the region placed into
  std::uint32_t framesUsed = 0;   ///< frames the module occupies from there
  std::vector<FrameRun> runs;
  std::uint32_t headerBytes = 0;
  std::optional<std::uint32_t> crc{};
};

/// An encoded bitstream plus its decoded identity. A stream is backed either
/// by its bytes (imported, relocated or hand-made streams) or by a
/// FrameRecipe (every stream Builder makes), whose frames are synthesized
/// only when crc() or bytes() first needs them. Both record their passes
/// under host.bitstream.materialize_ns (obs/host.hpp).
class Bitstream {
 public:
  Bitstream(Header header, std::vector<std::uint8_t> bytes)
      : header_(header), bytes_(std::move(bytes)) {}
  Bitstream(Header header, FrameRecipe recipe)
      : header_(header), recipe_(std::move(recipe)) {}

  [[nodiscard]] const Header& header() const noexcept { return header_; }

  /// The encoded bytes. A recipe stream materializes them on the first
  /// call, checks their CRC against crc() (BitstreamError on a mismatch)
  /// and keeps them for the stream's lifetime. Until crc() is known, that
  /// check runs a second, separate synthesis pass to compute it.
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const;

  /// The CRC-32 trailer. A byte-backed stream reads it from its bytes
  /// (BitstreamError if it has fewer than four). A recipe stream returns
  /// the recipe's CRC when set; otherwise the first call synthesizes the
  /// stream's frames once to compute it, and keeps the result.
  [[nodiscard]] std::uint32_t crc() const;

  /// The recipe of a built stream; null for a byte-backed one.
  [[nodiscard]] const FrameRecipe* recipe() const noexcept {
    return recipe_ ? &*recipe_ : nullptr;
  }

  /// Encoded size, whether or not the bytes are materialized.
  [[nodiscard]] util::Bytes size() const noexcept;

  /// Host bytes the stream holds: the object, its recipe runs, and its
  /// encoded bytes if it has any yet.
  [[nodiscard]] std::uint64_t residentBytes() const noexcept;

  [[nodiscard]] bool isPartial() const noexcept {
    return header_.type == StreamType::kPartial;
  }

 private:
  friend ParsedRef parse(const Bitstream& stream, const fabric::Device& device);

  Header header_;
  std::vector<std::uint8_t> bytes_;
  std::optional<FrameRecipe> recipe_;
  Memo<std::vector<std::uint8_t>> materialized_;
  Memo<std::uint32_t> crc_;
  Memo<ParseMemoEntry> memo_;
};

/// CRC-32 tag for a device name, stored in headers for compatibility checks.
[[nodiscard]] std::uint32_t deviceTag(const std::string& deviceName) noexcept;

}  // namespace prtr::bitstream
