#include "util/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PRTR_CRC32_CLMUL 1
#include <immintrin.h>
#else
#define PRTR_CRC32_CLMUL 0
#endif

namespace prtr::util {
namespace {

/// Slicing-by-8 tables: table[0] is the classic byte table; table[k] maps a
/// byte processed k positions earlier in an 8-byte block. Values are
/// identical to the byte-at-a-time loop for every input.
constexpr std::array<std::array<std::uint32_t, 256>, 8> makeTables() noexcept {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = tables[0][i];
    for (std::size_t t = 1; t < 8; ++t) {
      c = tables[0][c & 0xFFu] ^ (c >> 8);
      tables[t][i] = c;
    }
  }
  return tables;
}

constexpr auto kTables = makeTables();

#if PRTR_CRC32_CLMUL

#define PRTR_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

PRTR_CLMUL_TARGET inline __m128i load16(const std::uint8_t* at) noexcept {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(at));
}

/// One 128-bit fold: both 64-bit halves of `x` times their constant in `k`,
/// XORed into the 16 B that follow.
PRTR_CLMUL_TARGET inline __m128i fold(__m128i x, __m128i k, __m128i next) noexcept {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(hi, lo), next);
}

/// Folding kernel after Gopal et al., "Fast CRC Computation for Generic
/// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the shape of
/// zlib's crc32_simd: four 128-bit lanes fold 64 B per step, the lanes fold
/// into one, 16 B blocks fold into it, and a Barrett reduction brings the
/// 128-bit remainder down to 32 bits. The constants are x^k mod P(x) in the
/// bit-reflected domain. `n` is a multiple of 16 and at least 64; `crc` is
/// the running register, XORed into the first block so that splits compose.
PRTR_CLMUL_TARGET std::uint32_t crc32Clmul(std::uint32_t crc, const std::uint8_t* p,
                                           std::size_t n) noexcept {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5k0 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);

  __m128i x1 = _mm_xor_si128(load16(p), _mm_cvtsi32_si128(static_cast<int>(crc)));
  __m128i x2 = load16(p + 16);
  __m128i x3 = load16(p + 32);
  __m128i x4 = load16(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = fold(x1, k1k2, load16(p));
    x2 = fold(x2, k1k2, load16(p + 16));
    x3 = fold(x3, k1k2, load16(p + 32));
    x4 = fold(x4, k1k2, load16(p + 48));
    p += 64;
    n -= 64;
  }

  x1 = fold(x1, k3k4, x2);
  x1 = fold(x1, k3k4, x3);
  x1 = fold(x1, k3k4, x4);
  while (n >= 16) {
    x1 = fold(x1, k3k4, load16(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  const __m128i mask32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x1 = _mm_xor_si128(_mm_srli_si128(x1, 8), _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x1 = _mm_xor_si128(_mm_clmulepi64_si128(_mm_and_si128(x1, mask32), k5k0, 0x00),
                     _mm_srli_si128(x1, 4));

  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, mask32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, mask32), poly, 0x00);
  return static_cast<std::uint32_t>(_mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

/// Whether this CPU runs crc32Clmul; decided once per process.
bool useClmul() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return supported;
}

#undef PRTR_CLMUL_TARGET
#endif  // PRTR_CRC32_CLMUL

/// `a` times `b` modulo the CRC polynomial, both in the reflected bit order
/// of the register (bit 31 is x^0).
std::uint32_t multiplyModP(std::uint32_t a, std::uint32_t b) noexcept {
  std::uint32_t product = 0;
  for (std::uint32_t bit = 1u << 31; bit != 0; bit >>= 1) {
    if ((a & bit) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
  return product;
}

}  // namespace

namespace detail {

std::uint32_t crc32Table(std::uint32_t crc,
                         std::span<const std::uint8_t> data) noexcept {
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint64_t block;
      std::memcpy(&block, p, 8);
      block ^= crc;
      crc = kTables[7][block & 0xFFu] ^ kTables[6][(block >> 8) & 0xFFu] ^
            kTables[5][(block >> 16) & 0xFFu] ^
            kTables[4][(block >> 24) & 0xFFu] ^
            kTables[3][(block >> 32) & 0xFFu] ^
            kTables[2][(block >> 40) & 0xFFu] ^
            kTables[1][(block >> 48) & 0xFFu] ^ kTables[0][block >> 56];
      p += 8;
      n -= 8;
    }
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

}  // namespace detail

void Crc32::update(std::span<const std::uint8_t> data) noexcept {
#if PRTR_CRC32_CLMUL
  if (data.size() >= 64 && useClmul()) {
    const std::size_t folded = data.size() & ~std::size_t{15};
    crc_ = crc32Clmul(crc_, data.data(), folded);
    data = data.subspan(folded);
  }
#endif
  crc_ = detail::crc32Table(crc_, data);
}

std::uint32_t Crc32::combine(std::uint32_t crcA, std::uint32_t crcB,
                             std::uint64_t lengthB) noexcept {
  // Appending lengthB bytes multiplies A's contribution by x^(8 lengthB).
  std::uint32_t shift = 1u << 31;   // x^0
  std::uint32_t square = 1u << 23;  // x^8, squared once per bit of lengthB
  for (; lengthB != 0; lengthB >>= 1) {
    if ((lengthB & 1u) != 0) shift = multiplyModP(square, shift);
    square = multiplyModP(square, square);
  }
  return multiplyModP(shift, crcA) ^ crcB;
}

}  // namespace prtr::util
