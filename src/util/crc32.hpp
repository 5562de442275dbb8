#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3 polynomial) used to protect synthetic bitstreams,
/// mirroring the CRC words embedded in real Xilinx configuration streams.

#include <cstddef>
#include <cstdint>
#include <span>

namespace prtr::util {

/// Incremental CRC-32 computation. On x86 CPUs with PCLMULQDQ and SSE4.1,
/// an update() of 64 B or more folds its whole 16 B blocks with carry-less
/// multiplies; shorter inputs and the last < 16 B run the slicing-by-8 table
/// loop. The value is the same for every input at any split into update()
/// calls, on every CPU.
class Crc32 {
 public:
  /// Feeds `data` into the running checksum.
  void update(std::span<const std::uint8_t> data) noexcept;

  /// Final checksum value for everything fed so far.
  [[nodiscard]] std::uint32_t value() const noexcept { return ~crc_; }

  /// One-shot convenience.
  [[nodiscard]] static std::uint32_t of(std::span<const std::uint8_t> data) noexcept {
    Crc32 c;
    c.update(data);
    return c.value();
  }

  /// The checksum of A followed by B, from A's checksum, B's checksum and
  /// B's length (zlib's crc32_combine), without reading either.
  [[nodiscard]] static std::uint32_t combine(std::uint32_t crcA,
                                             std::uint32_t crcB,
                                             std::uint64_t lengthB) noexcept;

 private:
  std::uint32_t crc_ = 0xFFFFFFFFu;
};

namespace detail {

/// The slicing-by-8 table loop: advances the running (pre-inversion)
/// register `crc` over `data`. The portable path of Crc32::update, and the
/// reference its folding kernel is tested against.
[[nodiscard]] std::uint32_t crc32Table(std::uint32_t crc,
                                       std::span<const std::uint8_t> data) noexcept;

}  // namespace detail

}  // namespace prtr::util
