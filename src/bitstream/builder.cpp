#include "bitstream/builder.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "obs/host.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define PRTR_PAYLOAD_AVX2 1
#include <immintrin.h>
#else
#define PRTR_PAYLOAD_AVX2 0
#endif

namespace prtr::bitstream {
namespace {

/// Writes `v` little-endian at `at`.
void storeU32(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v);
  at[1] = static_cast<std::uint8_t>(v >> 8);
  at[2] = static_cast<std::uint8_t>(v >> 16);
  at[3] = static_cast<std::uint8_t>(v >> 24);
}

void putU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.resize(out.size() + 4);
  storeU32(out.data() + out.size() - 4, v);
}

void putU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  putU32(out, static_cast<std::uint32_t>(v));
  putU32(out, static_cast<std::uint32_t>(v >> 32));
}

/// The fixed-size header block: the header fields, then zero padding up to
/// `overheadBytes` minus the 4-byte CRC trailer.
std::vector<std::uint8_t> headerBlock(const Header& header,
                                      std::uint32_t overheadBytes) {
  std::vector<std::uint8_t> out;
  putU32(out, Header::kMagic);
  out.push_back(static_cast<std::uint8_t>(header.type));
  out.push_back(0);  // version
  out.push_back(0);
  out.push_back(0);
  putU32(out, header.deviceTag);
  putU32(out, header.firstFrame);
  putU32(out, header.frameCount);
  putU32(out, header.frameBytes);
  putU64(out, header.moduleId);
  util::require(overheadBytes >= out.size() + 4,
                "Builder: overhead too small for header fields");
  out.resize(overheadBytes - 4, 0);  // command-preamble padding
  return out;
}

/// Records `frames` synthesized frames (see detail::synthesizeFrames).
void countSynthesized(std::uint64_t frames) {
  if (frames != 0) {
    obs::hostMetrics().observe("host.bitstream.frames_synthesized",
                               static_cast<std::int64_t>(frames));
  }
}

/// Frames per synthesis block: whole eight-lane groups of the payload
/// kernel, as many as fit a 32 KiB L1 data cache at `stride` bytes a frame.
std::uint32_t blockFrames(std::size_t stride) {
  constexpr std::size_t kBlockBytes = 32 * 1024;
  return std::max<std::uint32_t>(
      8, static_cast<std::uint32_t>(kBlockBytes / stride) / 8 * 8);
}

/// Zeroes `block`'s first `count` frames at stride `frameBytes + address`
/// and writes frames `first`..`first + count - 1` of `module` placed at
/// `regionFirst` with `framesUsed` occupied frames (the framePayload rule),
/// each after its `address`-byte address word when `address` is not 0.
void writeBlock(std::span<std::uint8_t> block, ModuleId module,
                std::uint32_t frameBytes, std::size_t address,
                std::uint32_t regionFirst, std::uint32_t framesUsed,
                std::uint32_t first, std::uint32_t count) {
  const std::size_t stride = frameBytes + address;
  std::fill_n(block.begin(), count * stride, std::uint8_t{0});
  if (address != 0) {
    for (std::uint32_t i = 0; i < count; ++i) {
      storeU32(block.data() + i * stride, first + i);
    }
  }
  const std::uint64_t begin = std::max(first, regionFirst);
  const std::uint64_t end = std::min(std::uint64_t{first} + count,
                                     std::uint64_t{regionFirst} + framesUsed);
  if (begin < end) {
    writeFramePayloads(module, static_cast<std::uint32_t>(begin),
                       static_cast<std::uint32_t>(end - begin), frameBytes,
                       block.subspan((begin - first) * stride + address),
                       stride);
  }
}

/// The generator of an occupied frame's payload (the framePayload contract).
util::Rng payloadRng(ModuleId module, std::uint32_t frame) noexcept {
  return util::Rng{module * 0x100000001b3ULL ^ frame};
}

/// Rng::chance(0.25) without the double round-trip: uniform() compares
/// (r >> 11) * 2^-53 against 2^-2, which holds exactly when r < 2^62.
constexpr std::uint64_t kQuarterThreshold = std::uint64_t{1} << 62;

void requireFits(std::uint32_t count, std::uint32_t frameBytes,
                 std::span<const std::uint8_t> out, std::size_t stride) {
  util::require(count == 0 || (stride >= frameBytes &&
                               (count - 1) * stride + frameBytes <= out.size()),
                "writeFramePayloads: frames overlap or exceed the buffer");
}

#if PRTR_PAYLOAD_AVX2

#define PRTR_AVX2_TARGET __attribute__((target("avx2,popcnt")))

// The kernel splits each frame's draw sequence without a per-byte branch.
// Call a draw a *flag* when it decides a byte and a *value* when it is the
// byte: draw 0 is a flag, and draw k > 0 is a value iff draw k - 1 is a
// flag below 2^62. The draws come in 64-draw blocks, eight frames (lanes)
// at a time, and the flag/value split of a block is bit arithmetic on its
// 64-bit mask of draws below 2^62.

constexpr std::uint32_t kLanes = 8;
constexpr std::uint32_t kBlockDraws = 64;

PRTR_AVX2_TARGET inline __m256i load4(const std::uint64_t* words) noexcept {
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(words));
}

PRTR_AVX2_TARGET inline void store4(std::uint64_t* words, __m256i v) noexcept {
  _mm256_store_si256(reinterpret_cast<__m256i*>(words), v);
}

template <int K>
PRTR_AVX2_TARGET inline __m256i rotl(__m256i x) noexcept {
  return _mm256_or_si256(_mm256_slli_epi64(x, K), _mm256_srli_epi64(x, 64 - K));
}

/// Four xoshiro256** streams, one per 64-bit lane; Rng::operator() with
/// the multiplies by 5 and 9 as shift-adds (AVX2 has no 64-bit multiply).
struct Xoshiro4 {
  __m256i s0, s1, s2, s3;

  /// Lanes `at` to `at + 3` of the state words `seeds[0..3]`.
  PRTR_AVX2_TARGET static Xoshiro4 load(const std::uint64_t (&seeds)[4][kLanes],
                                        std::size_t at) noexcept {
    return {load4(&seeds[0][at]), load4(&seeds[1][at]), load4(&seeds[2][at]),
            load4(&seeds[3][at])};
  }

  PRTR_AVX2_TARGET __m256i next() noexcept {
    const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i rotated = rotl<7>(times5);
    const __m256i result =
        _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl<45>(s3);
    return result;
  }
};

/// The value draws of one block (bit k = draw k), after the odd-run carry
/// of simdjson's escape scan (Langdale & Lemire, arXiv 1902.08318), with
/// draws below 2^62 (`quarter`) in the role of backslashes: after a draw at
/// or above 2^62 comes a flag, and within a run of `quarter` draws flags and
/// values alternate. `carry` is 1 when draw 0 is a value (the previous
/// block's draw 63 was a flag below 2^62); it is updated for the next block.
constexpr std::uint64_t valueDraws(std::uint64_t quarter,
                                   std::uint64_t& carry) noexcept {
  constexpr std::uint64_t kOdd = 0xAAAAAAAAAAAAAAAAULL;
  const std::uint64_t flagsIn = quarter & ~carry;  // run members that may be flags
  const std::uint64_t code = (((flagsIn << 1) | kOdd) - flagsIn) ^ kOdd;
  const std::uint64_t values = code ^ (quarter | carry);
  carry = (code & quarter) >> 63;
  return values;
}

/// One lane's frame in progress: `bytes` flags taken so far, which is the
/// index of the byte the next flag decides.
struct Lane {
  std::uint8_t* payload = nullptr;
  std::uint32_t bytes = 0;
  std::uint64_t carry = 0;
  bool active = false;
};

/// Stores the value bytes one block holds for `lane`'s frame; `draws`
/// points at the lane's draw 0, the next draw `kLanes` further on. Returns
/// whether the frame is complete. A value draw at bit k belongs to the flag
/// before it, byte `bytes + popcount(flags below k) - 1`; at bit 0 that is
/// the previous block's last flag, which may be the frame's last byte.
PRTR_AVX2_TARGET bool consumeBlock(Lane& lane, std::uint64_t quarter,
                                   const std::uint64_t* draws,
                                   std::uint32_t frameBytes) noexcept {
  const std::uint64_t values = valueDraws(quarter, lane.carry);
  const std::uint64_t flags = ~values;
  for (std::uint64_t pending = values; pending != 0; pending &= pending - 1) {
    const auto k = static_cast<unsigned>(__builtin_ctzll(pending));
    const std::uint64_t below = flags & ((std::uint64_t{1} << k) - 1);
    const std::uint32_t byte =
        lane.bytes + static_cast<std::uint32_t>(__builtin_popcountll(below)) - 1;
    if (byte >= frameBytes) break;
    lane.payload[byte] = static_cast<std::uint8_t>(draws[k * kLanes] | 1);
  }
  lane.bytes += static_cast<std::uint32_t>(__builtin_popcountll(flags));
  return lane.bytes > frameBytes || (lane.bytes == frameBytes && lane.carry == 0);
}

/// writeFramePayloads on AVX2: eight frames per group, their generators in
/// two Xoshiro4, 64 draws per lane per block. A group runs until its
/// longest frame completes; lanes that finish early, or hold no frame,
/// keep drawing and are ignored.
PRTR_AVX2_TARGET void writeFramePayloadsAvx2(ModuleId module,
                                             std::uint32_t firstFrame,
                                             std::uint32_t count,
                                             std::uint32_t frameBytes,
                                             std::uint8_t* out,
                                             std::size_t stride) noexcept {
  alignas(32) std::uint64_t draws[kBlockDraws * kLanes];
  alignas(32) std::uint64_t seeds[4][kLanes];
  alignas(32) std::uint64_t quarter[kLanes];
  const __m256i top = _mm256_set1_epi64x(std::numeric_limits<long long>::min());
  for (std::uint32_t group = 0; group < count; group += kLanes) {
    const std::uint32_t frames = std::min(kLanes, count - group);
    Lane lanes[kLanes];
    for (std::uint32_t i = 0; i < kLanes; ++i) {
      const std::array<std::uint64_t, 4> state =
          i < frames ? payloadRng(module, firstFrame + group + i).state()
                     : std::array<std::uint64_t, 4>{};
      for (std::size_t w = 0; w < 4; ++w) seeds[w][i] = state[w];
      if (i < frames) {
        lanes[i].payload = out + (group + i) * stride;
        lanes[i].active = true;
      }
    }
    Xoshiro4 low = Xoshiro4::load(seeds, 0);
    Xoshiro4 high = Xoshiro4::load(seeds, 4);
    for (std::uint32_t active = frames; active > 0;) {
      // Each draw enters its lane's mask at bit 63, set iff the draw is
      // below 2^62, and moves down a bit per draw: after the block, bit k
      // is draw k.
      __m256i quarterLow = _mm256_setzero_si256();
      __m256i quarterHigh = _mm256_setzero_si256();
      for (std::uint32_t k = 0; k < kBlockDraws; ++k) {
        const __m256i a = low.next();
        const __m256i b = high.next();
        store4(draws + k * kLanes, a);
        store4(draws + k * kLanes + 4, b);
        quarterLow = _mm256_or_si256(
            _mm256_srli_epi64(quarterLow, 1),
            _mm256_andnot_si256(_mm256_or_si256(a, _mm256_slli_epi64(a, 1)), top));
        quarterHigh = _mm256_or_si256(
            _mm256_srli_epi64(quarterHigh, 1),
            _mm256_andnot_si256(_mm256_or_si256(b, _mm256_slli_epi64(b, 1)), top));
      }
      store4(quarter, quarterLow);
      store4(quarter + 4, quarterHigh);
      for (std::uint32_t i = 0; i < frames; ++i) {
        if (lanes[i].active &&
            consumeBlock(lanes[i], quarter[i], draws + i, frameBytes)) {
          lanes[i].active = false;
          --active;
        }
      }
    }
  }
}

/// Whether this CPU runs writeFramePayloadsAvx2; decided once per process.
bool useAvx2() noexcept {
  static const bool supported = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("popcnt");
  }();
  return supported;
}

#undef PRTR_AVX2_TARGET
#endif  // PRTR_PAYLOAD_AVX2

}  // namespace

namespace detail {

void writeFramePayloadsScalar(ModuleId module, std::uint32_t firstFrame,
                              std::uint32_t count, std::uint32_t frameBytes,
                              std::span<std::uint8_t> out, std::size_t stride) {
  requireFits(count, frameBytes, out, stride);
  if (module == 0) return;
  for (std::uint32_t i = 0; i < count; ++i) {
    util::Rng rng = payloadRng(module, firstFrame + i);
    std::uint8_t* payload = out.data() + i * stride;
    for (std::uint32_t b = 0; b < frameBytes; ++b) {
      if (rng() < kQuarterThreshold) {
        payload[b] = static_cast<std::uint8_t>(rng() | 1);  // non-zero content
      }
    }
  }
}

bool framePayloadsVectorized() noexcept {
#if PRTR_PAYLOAD_AVX2
  return useAvx2();
#else
  return false;
#endif
}

}  // namespace detail

void writeFramePayloads(ModuleId module, std::uint32_t firstFrame,
                        std::uint32_t count, std::uint32_t frameBytes,
                        std::span<std::uint8_t> out, std::size_t stride) {
#if PRTR_PAYLOAD_AVX2
  // The kernel draws for all eight lanes whatever the count, so under four
  // frames (one frame in a readback, a run's tail) the scalar loop is
  // faster.
  if (module != 0 && count >= 4 && useAvx2()) {
    requireFits(count, frameBytes, out, stride);
    writeFramePayloadsAvx2(module, firstFrame, count, frameBytes, out.data(),
                           stride);
    return;
  }
#endif
  detail::writeFramePayloadsScalar(module, firstFrame, count, frameBytes, out,
                                   stride);
}

std::vector<std::uint8_t> framePayload(ModuleId module,
                                       std::uint32_t regionFirstFrame,
                                       std::uint32_t framesUsed,
                                       std::uint32_t frame,
                                       std::uint32_t frameBytes) {
  // Frames inside the module's footprint take module-specific content;
  // frames beyond it take the region baseline (module 0 = erased fabric,
  // all zeros). This makes difference-based streams variable-sized, as in
  // the real flow.
  //
  // Occupied frames are *sparse*: real configuration frames are mostly
  // zero bits (unused routing/LUT entries), which is what makes bitstream
  // compression work. ~25% of bytes carry module-specific content.
  std::vector<std::uint8_t> payload(frameBytes, 0);
  if (frame - regionFirstFrame < framesUsed) {
    writeFramePayloads(module, frame, 1, frameBytes, payload, frameBytes);
  }
  return payload;
}

std::uint32_t Builder::usedFrames(const fabric::Region& region,
                                  double occupancy) const {
  util::require(occupancy > 0.0 && occupancy <= 1.0,
                "Builder: occupancy must be in (0, 1]");
  const std::uint32_t total = region.frames(*device_).count;
  const auto used = static_cast<std::uint32_t>(
      std::ceil(occupancy * static_cast<double>(total)));
  return std::clamp<std::uint32_t>(used, 1, total);
}

Bitstream Builder::buildFull(ModuleId designId) const {
  const auto& geometry = device_->geometry();
  const auto& enc = geometry.encoding();
  Header header;
  header.type = StreamType::kFull;
  header.deviceTag = deviceTag(device_->name());
  header.firstFrame = 0;
  header.frameCount = geometry.totalFrames();
  header.frameBytes = enc.frameBytes;
  header.moduleId = designId;

  Bitstream stream = fromRecipe(header,
                                {.regionFirst = 0,
                                 .framesUsed = header.frameCount,
                                 .runs = {{0, header.frameCount}}},
                                enc.fullOverheadBytes);
  util::require(stream.size() == geometry.fullBitstreamBytes(),
                "Builder: full stream size mismatch");
  return stream;
}

Bitstream Builder::buildModulePartial(const fabric::Region& region,
                                      ModuleId module, double occupancy) const {
  const auto& enc = device_->geometry().encoding();
  const fabric::FrameRange range = region.frames(*device_);

  Header header;
  header.type = StreamType::kPartial;
  header.deviceTag = deviceTag(device_->name());
  header.firstFrame = range.first;
  header.frameCount = range.count;
  header.frameBytes = enc.frameBytes;
  header.moduleId = module;

  Bitstream stream = fromRecipe(header,
                                {.regionFirst = range.first,
                                 .framesUsed = usedFrames(region, occupancy),
                                 .runs = {{range.first, range.count}}},
                                enc.partialOverheadBytes);
  util::require(stream.size() == region.partialBitstreamBytes(*device_),
                "Builder: module partial size mismatch");
  return stream;
}

Bitstream Builder::buildDifferencePartial(const fabric::Region& region,
                                          ModuleId fromModule,
                                          double fromOccupancy,
                                          ModuleId toModule,
                                          double toOccupancy) const {
  const auto& enc = device_->geometry().encoding();
  const fabric::FrameRange range = region.frames(*device_);
  const std::uint32_t fromUsed = usedFrames(region, fromOccupancy);
  const std::uint32_t toUsed = usedFrames(region, toOccupancy);
  FrameRecipe recipe{
      .regionFirst = range.first, .framesUsed = toUsed, .runs = {}};

  // One pass over both images of the frames either module occupies (past
  // them both are baseline, so no frame there changes), a block at a time:
  // a frame whose payloads differ joins the runs, and its address word and
  // `to` payload feed the CRC of the frame section.
  const std::uint32_t imageEnd = range.first + std::max(fromUsed, toUsed);
  const std::uint32_t frameBytes = enc.frameBytes;
  const std::uint32_t perBlock = blockFrames(frameBytes);
  std::vector<std::uint8_t> from(std::size_t{perBlock} * frameBytes);
  std::vector<std::uint8_t> to(from.size());
  util::Crc32 frames;
  std::uint32_t changed = 0;
  for (std::uint32_t first = range.first; first < imageEnd; first += perBlock) {
    const std::uint32_t count = std::min(perBlock, imageEnd - first);
    writeBlock(from, fromModule, frameBytes, 0, range.first, fromUsed, first,
               count);
    writeBlock(to, toModule, frameBytes, 0, range.first, toUsed, first, count);
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::span<const std::uint8_t> payload{
          to.data() + std::size_t{i} * frameBytes, frameBytes};
      if (std::memcmp(from.data() + std::size_t{i} * frameBytes,
                      payload.data(), frameBytes) == 0) {
        continue;
      }
      appendFrame(recipe.runs, first + i);
      std::uint8_t address[kFrameAddressBytes];
      storeU32(address, first + i);
      frames.update(address);
      frames.update(payload);
      ++changed;
    }
  }
  countSynthesized(2 * std::uint64_t{imageEnd - range.first});

  Header header;
  header.type = StreamType::kPartial;
  header.deviceTag = deviceTag(device_->name());
  header.firstFrame =
      recipe.runs.empty() ? range.first : recipe.runs.front().first;
  header.frameCount = changed;
  header.frameBytes = enc.frameBytes;
  header.moduleId = toModule;

  const std::vector<std::uint8_t> head =
      headerBlock(header, enc.partialOverheadBytes);
  recipe.headerBytes = static_cast<std::uint32_t>(head.size());
  recipe.crc = util::Crc32::combine(
      util::Crc32::of(head), frames.value(),
      std::uint64_t{changed} * (frameBytes + kFrameAddressBytes));
  return Bitstream{header, std::move(recipe)};
}

Bitstream Builder::fromRecipe(const Header& header, FrameRecipe recipe,
                              std::uint32_t overheadBytes) {
  recipe.headerBytes =
      static_cast<std::uint32_t>(headerBlock(header, overheadBytes).size());
  return Bitstream{header, std::move(recipe)};
}

namespace detail {

void synthesizeFrames(const Header& header, std::span<const FrameRun> runs,
                      std::uint32_t regionFirst, std::uint32_t framesUsed,
                      const FrameBlockVisitor& visit) {
  const std::size_t address = header.type == StreamType::kPartial
                                  ? kFrameAddressBytes
                                  : 0;
  const std::size_t stride = header.frameBytes + address;
  const std::uint32_t perBlock = blockFrames(stride);
  std::vector<std::uint8_t> block(perBlock * stride);
  std::uint64_t frames = 0;
  for (const FrameRun& run : runs) {
    const std::uint64_t end = std::uint64_t{run.first} + run.count;
    for (std::uint64_t first = run.first; first < end; first += perBlock) {
      const auto count = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(perBlock, end - first));
      writeBlock(block, header.moduleId, header.frameBytes, address,
                 regionFirst, framesUsed, static_cast<std::uint32_t>(first),
                 count);
      visit(std::span{block}.first(count * stride),
            static_cast<std::uint32_t>(first), count);
    }
    frames += run.count;
  }
  countSynthesized(frames);
}

std::uint32_t synthesizeCrc(const Header& header, const FrameRecipe& recipe) {
  util::Crc32 crc;
  crc.update(headerBlock(header, recipe.headerBytes + 4));
  synthesizeFrames(header, recipe.runs, recipe.regionFirst, recipe.framesUsed,
                   [&crc](std::span<const std::uint8_t> block, std::uint32_t,
                          std::uint32_t) { crc.update(block); });
  return crc.value();
}

std::vector<std::uint8_t> materialize(const Header& header,
                                      const FrameRecipe& recipe,
                                      std::uint32_t expectedCrc) {
  const std::size_t address =
      header.type == StreamType::kPartial ? kFrameAddressBytes : 0;
  std::vector<std::uint8_t> bytes =
      headerBlock(header, recipe.headerBytes + 4);
  bytes.reserve(bytes.size() +
                std::size_t{header.frameCount} * (header.frameBytes + address) +
                4);
  synthesizeFrames(header, recipe.runs, recipe.regionFirst, recipe.framesUsed,
                   [&bytes](std::span<const std::uint8_t> block, std::uint32_t,
                            std::uint32_t) {
                     bytes.insert(bytes.end(), block.begin(), block.end());
                   });
  const std::uint32_t crc = util::Crc32::of(bytes);
  if (crc != expectedCrc) {
    throw util::BitstreamError{
        "XBF: materialized bytes do not match the stream's CRC"};
  }
  putU32(bytes, crc);
  return bytes;
}

}  // namespace detail

}  // namespace prtr::bitstream
