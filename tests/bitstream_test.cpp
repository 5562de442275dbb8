// Tests for bitstream generation, parsing, and the module- vs
// difference-based flow accounting of paper section 2.2.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bitstream/builder.hpp"
#include "bitstream/library.hpp"
#include "bitstream/parser.hpp"
#include "exec/pool.hpp"
#include "fabric/floorplan.hpp"
#include "obs/host.hpp"
#include "tasks/hwfunction.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::bitstream {
namespace {

class BitstreamTest : public ::testing::Test {
 protected:
  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  Builder builder_{plan_.device()};
};

TEST_F(BitstreamTest, FullStreamHasExactCalibratedSize) {
  const Bitstream full = builder_.buildFull(1);
  EXPECT_EQ(full.size().count(), 2'381'764u);
  EXPECT_FALSE(full.isPartial());
  EXPECT_EQ(full.header().frameCount, 2246u);
}

TEST_F(BitstreamTest, ModulePartialSizeIsFixedPerRegion) {
  const Bitstream a = builder_.buildModulePartial(plan_.prr(0), 7, 0.3);
  const Bitstream b = builder_.buildModulePartial(plan_.prr(0), 8, 0.9);
  // Module-based flow: same region => same size, regardless of occupancy.
  EXPECT_EQ(a.size().count(), b.size().count());
  EXPECT_EQ(a.size(), plan_.prr(0).partialBitstreamBytes(plan_.device()));
  EXPECT_TRUE(a.isPartial());
}

TEST_F(BitstreamTest, DifferencePartialVariesWithOccupancy) {
  const Bitstream small =
      builder_.buildDifferencePartial(plan_.prr(0), 7, 0.2, 8, 0.2);
  const Bitstream large =
      builder_.buildDifferencePartial(plan_.prr(0), 7, 0.2, 9, 0.95);
  EXPECT_LT(small.size().count(), large.size().count());
  // Difference streams never exceed the module-based fixed size by more
  // than the per-frame addressing they share.
  EXPECT_LE(large.size().count(),
            plan_.prr(0).partialBitstreamBytes(plan_.device()).count());
}

TEST_F(BitstreamTest, DifferenceOfIdenticalModulesIsEmpty) {
  const Bitstream none =
      builder_.buildDifferencePartial(plan_.prr(0), 7, 0.5, 7, 0.5);
  EXPECT_EQ(none.header().frameCount, 0u);
}

TEST_F(BitstreamTest, ParseRoundTripsFull) {
  const Bitstream full = builder_.buildFull(3);
  const ParsedStream parsed = *parse(full, plan_.device());
  EXPECT_EQ(parsed.header.moduleId, 3u);
  EXPECT_EQ(parsed.frameRuns, (std::vector<FrameRun>{{0, 2246}}));
}

/// The little-endian word at `at` of `bytes`.
std::uint32_t readU32(std::span<const std::uint8_t> bytes, std::size_t at) {
  return static_cast<std::uint32_t>(bytes[at]) |
         static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
         static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
         static_cast<std::uint32_t>(bytes[at + 3]) << 24;
}

/// Every (frame, payload) the parse's payload accessor hands out, in order.
std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> payloadsOf(
    const ParsedStream& parsed) {
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> out;
  parsed.forEachPayload(
      [&out](std::uint32_t frame, std::span<const std::uint8_t> payload) {
        out.emplace_back(frame, std::vector<std::uint8_t>(payload.begin(),
                                                          payload.end()));
      });
  return out;
}

TEST_F(BitstreamTest, ParseRoundTripsPartialWithRegionAddresses) {
  const Bitstream part = builder_.buildModulePartial(plan_.prr(1), 5);
  const ParsedStream& parsed = *parse(part, plan_.device());
  const fabric::FrameRange range = plan_.prr(1).frames(plan_.device());
  EXPECT_EQ(parsed.frameRuns,
            (std::vector<FrameRun>{{range.first, range.count}}));
  // Write i of the encoded stream is its address word, then its payload:
  // the accessor hands out the frame the word names and those bytes.
  const auto& enc = plan_.device().geometry().encoding();
  const std::span<const std::uint8_t> bytes{part.bytes()};
  const auto payloads = payloadsOf(parsed);
  ASSERT_EQ(payloads.size(), range.count);
  std::size_t at = enc.partialOverheadBytes - 4;
  for (const auto& [frame, payload] : payloads) {
    EXPECT_TRUE(range.contains(frame));
    EXPECT_EQ(readU32(bytes, at), frame);
    at += enc.frameAddressBytes;
    ASSERT_EQ(payload.size(), enc.frameBytes);
    EXPECT_TRUE(std::equal(payload.begin(), payload.end(),
                           bytes.begin() + static_cast<std::ptrdiff_t>(at)));
    at += enc.frameBytes;
  }
}

TEST_F(BitstreamTest, ParseRejectsCorruptedPayload) {
  Bitstream part = builder_.buildModulePartial(plan_.prr(0), 5);
  auto bytes = part.bytes();
  bytes[bytes.size() / 2] ^= 0xFF;
  EXPECT_THROW(parse(std::span{bytes}, plan_.device()), util::BitstreamError);
}

TEST_F(BitstreamTest, ParseRejectsWrongDevice) {
  const Bitstream part = builder_.buildModulePartial(plan_.prr(0), 5);
  const fabric::Device other = fabric::makeXc2vp30();
  EXPECT_THROW(parse(part, other), util::BitstreamError);
}

TEST_F(BitstreamTest, ParseRejectsBadMagic) {
  std::vector<std::uint8_t> junk(64, 0);
  EXPECT_THROW(parse(std::span{junk}, plan_.device()), util::BitstreamError);
  std::vector<std::uint8_t> tiny(8, 0);
  EXPECT_THROW(parse(std::span{tiny}, plan_.device()), util::BitstreamError);
}

// ---- the parse memo: one validation per stream object and device -------

/// A device with `base`'s name (so its tag matches every stream built for
/// `base`) but a different geometry: one extra column, and `frameBytes`.
fabric::Device variantOf(const fabric::Device& base, std::uint32_t frameBytes) {
  const fabric::DeviceGeometry& geometry = base.geometry();
  std::vector<fabric::ColumnSpec> columns(geometry.columns().begin(),
                                          geometry.columns().end());
  columns.push_back(columns.back());
  fabric::DeviceGeometry::Encoding encoding = geometry.encoding();
  encoding.frameBytes = frameBytes;
  return fabric::Device{
      fabric::DeviceGeometry{base.name(), geometry.rows(), std::move(columns),
                             encoding},
      base.usableResources(), "variant"};
}

/// `stream` with one payload byte flipped, so its CRC no longer matches.
Bitstream corrupted(const Bitstream& stream) {
  std::vector<std::uint8_t> bytes = stream.bytes();
  bytes[bytes.size() / 2] ^= 0xFF;
  return Bitstream{stream.header(), std::move(bytes)};
}

TEST_F(BitstreamTest, ParseMemoizesOneViewPerStream) {
  const Bitstream part = builder_.buildModulePartial(plan_.prr(0), 5);
  const ParsedStream* first = &*parse(part, plan_.device());
  EXPECT_EQ(&*parse(part, plan_.device()), first);
  // A separately built device with the same geometry shares the memo.
  const fabric::Floorplan twin = fabric::makeDualPrrLayout();
  ASSERT_NE(&twin.device(), &plan_.device());
  EXPECT_EQ(&*parse(part, twin.device()), first);
  // The span overload never consults the memo.
  EXPECT_EQ(parse(std::span{part.bytes()}, plan_.device()).frameRuns,
            first->frameRuns);
}

TEST_F(BitstreamTest, CorruptStreamThrowsOnEveryParse) {
  const Bitstream bad =
      corrupted(builder_.buildModulePartial(plan_.prr(0), 5));
  for (int call = 0; call < 3; ++call) {
    try {
      (void)parse(bad, plan_.device());
      FAIL() << "call " << call << " accepted a corrupt stream";
    } catch (const util::BitstreamError& e) {
      EXPECT_NE(std::string{e.what()}.find("BS006"), std::string::npos);
    }
  }
}

TEST_F(BitstreamTest, OtherDeviceNeverReplacesTheMemo) {
  const Bitstream part = builder_.buildModulePartial(plan_.prr(0), 5);
  const ParsedRef memo = parse(part, plan_.device());
  const std::vector<FrameRun> runs = memo->frameRuns;

  auto expectCode = [&](const fabric::Device& device, const char* code) {
    try {
      (void)parse(part, device);
      ADD_FAILURE() << "parsed against " << device.name();
    } catch (const util::BitstreamError& e) {
      EXPECT_NE(std::string{e.what()}.find(code), std::string::npos)
          << e.what();
    }
  };
  expectCode(fabric::makeXc2vp30(), "BS004");
  const std::uint32_t frameBytes =
      plan_.device().geometry().encoding().frameBytes;
  expectCode(variantOf(plan_.device(), frameBytes + 4), "BS005");

  // A same-named device with more frames accepts the stream; it gets a
  // private view, and the memo keeps serving the original device.
  const fabric::Device moreFrames = variantOf(plan_.device(), frameBytes);
  const ParsedRef other = parse(part, moreFrames);
  EXPECT_NE(&*other, &*memo);
  EXPECT_EQ(other->frameRuns, runs);
  EXPECT_EQ(payloadsOf(*other), payloadsOf(*memo));

  EXPECT_EQ(&*parse(part, plan_.device()), &*memo);
  EXPECT_EQ(memo->frameRuns, runs);
}

TEST_F(BitstreamTest, CopiedStreamViewsItsOwnBytes) {
  // A byte-backed stream: its view's payloads are slices of its bytes.
  const Bitstream built = builder_.buildModulePartial(plan_.prr(1), 6);
  Bitstream original{built.header(), built.bytes()};
  ASSERT_EQ(original.recipe(), nullptr);
  const ParsedStream* originalView = &*parse(original, plan_.device());

  const Bitstream copy = original;
  const ParsedRef copyView = parse(copy, plan_.device());
  EXPECT_NE(&*copyView, originalView);
  const std::uint8_t* begin = copy.bytes().data();
  const std::uint8_t* end = begin + copy.bytes().size();
  std::size_t visited = 0;
  copyView->forEachPayload(
      [&](std::uint32_t, std::span<const std::uint8_t> payload) {
        ++visited;
        ASSERT_GE(payload.data(), begin);
        ASSERT_LE(payload.data() + payload.size(), end);
      });
  EXPECT_EQ(visited, copy.header().frameCount);
  // The same bytes the recipe stream synthesizes.
  EXPECT_EQ(payloadsOf(*copyView), payloadsOf(*parse(built, plan_.device())));

  // A copied recipe stream gets a memo of its own, with the same payloads.
  const Bitstream recipeCopy = built;
  ASSERT_NE(recipeCopy.recipe(), nullptr);
  EXPECT_NE(&*parse(recipeCopy, plan_.device()),
            &*parse(built, plan_.device()));
  EXPECT_EQ(payloadsOf(*parse(recipeCopy, plan_.device())),
            payloadsOf(*copyView));

  // A move keeps the buffer, so it keeps the view too.
  const Bitstream moved = std::move(original);
  EXPECT_EQ(&*parse(moved, plan_.device()), originalView);
}

TEST_F(BitstreamTest, PoolWorkersShareOneFirstParse) {
  constexpr std::size_t kWorkers = 8;
  const Bitstream fresh = builder_.buildModulePartial(plan_.prr(0), 9);
  exec::Pool pool{kWorkers};
  std::atomic<std::size_t> arrived{0};
  std::vector<std::future<const ParsedStream*>> views;
  for (std::size_t i = 0; i < kWorkers; ++i) {
    views.push_back(pool.submit([&] {
      // Gather every worker at the start line (bounded, so a pool that
      // runs fewer tasks at once cannot hang the test), then race.
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (arrived.load() < kWorkers &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      return &*parse(fresh, plan_.device());
    }));
  }
  std::vector<const ParsedStream*> got;
  for (auto& view : views) got.push_back(view.get());
  for (const ParsedStream* view : got) {
    EXPECT_EQ(view, got.front());
  }
  EXPECT_EQ(&*parse(fresh, plan_.device()), got.front());
  EXPECT_EQ(got.front()->header.frameCount,
            plan_.prr(0).frames(plan_.device()).count);
}

TEST_F(BitstreamTest, ConcurrentBytesCallsShareOneBuffer) {
  constexpr std::size_t kThreads = 8;
  const Bitstream fresh = builder_.buildModulePartial(plan_.prr(1), 9, 0.6);
  std::atomic<std::size_t> arrived{0};
  std::vector<const std::vector<std::uint8_t>*> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (arrived.load() < kThreads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      got[i] = &fresh.bytes();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::vector<std::uint8_t>* bytes : got) {
    EXPECT_EQ(bytes, got.front());
  }
  EXPECT_EQ(&fresh.bytes(), got.front());
  EXPECT_EQ(got.front()->size(), fresh.size().count());
}

TEST_F(BitstreamTest, MaterializingAWrongRecipeThrows) {
  const Bitstream built = builder_.buildModulePartial(plan_.prr(0), 5);
  FrameRecipe recipe = *built.recipe();
  recipe.crc = built.crc() ^ 1;
  const Bitstream wrong{built.header(), recipe};
  EXPECT_THROW((void)wrong.bytes(), util::BitstreamError);
  EXPECT_THROW((void)wrong.bytes(), util::BitstreamError);  // never memoized
}

// A byte-backed stream's CRC is its trailer, with no synthesis: a copy of
// a recipe stream's bytes reports the recipe stream's CRC. A stream too
// short to hold a trailer has none.
TEST_F(BitstreamTest, ByteBackedCrcIsItsTrailer) {
  const Bitstream built = builder_.buildModulePartial(plan_.prr(0), 5);
  const Bitstream copy{built.header(), built.bytes()};
  EXPECT_EQ(copy.crc(), built.crc());
  const Bitstream stub{built.header(), std::vector<std::uint8_t>{1, 2, 3}};
  EXPECT_THROW((void)stub.crc(), util::BitstreamError);
}

TEST_F(BitstreamTest, PayloadsAreDeterministic) {
  const auto a = framePayload(9, 100, 50, 120, 64);
  const auto b = framePayload(9, 100, 50, 120, 64);
  EXPECT_EQ(a, b);
  const auto c = framePayload(10, 100, 50, 120, 64);
  EXPECT_NE(a, c);
}

TEST_F(BitstreamTest, UnoccupiedFramesCarryBaselineContent) {
  // Frame beyond the module footprint equals the baseline (module 0).
  const auto outside = framePayload(9, 100, 10, 115, 64);
  const auto baseline = framePayload(0, 100, 10, 115, 64);
  EXPECT_EQ(outside, baseline);
}

// Frames `first`..`first + count - 1` of `module` through writeFramePayloads
// (vector) or the scalar reference, into a zeroed buffer at `stride` with
// room for two more frames, which stay unoccupied.
std::vector<std::uint8_t> framePayloads(bool vector, ModuleId module,
                                        std::uint32_t first, std::uint32_t count,
                                        std::uint32_t frameBytes,
                                        std::size_t stride) {
  std::vector<std::uint8_t> out((count + 2) * stride, 0);
  if (vector) {
    writeFramePayloads(module, first, count, frameBytes, out, stride);
  } else {
    detail::writeFramePayloadsScalar(module, first, count, frameBytes, out,
                                     stride);
  }
  return out;
}

// Every frame size class (one byte, a 64-draw block and either side of it,
// the two device encodings), every group fill of the eight-lane kernel from
// one lane to two groups and a lane, contiguous and addressed strides, and
// the baseline module: the bytes match the scalar reference's, and the
// address gaps and the unoccupied frames after the run stay zero.
TEST(FramePayloadsTest, KernelMatchesScalarReference) {
  SCOPED_TRACE(detail::framePayloadsVectorized() ? "AVX2 kernel" : "scalar");
  for (const std::uint32_t frameBytes : {1u, 2u, 63u, 64u, 65u, 164u, 1060u}) {
    const std::size_t addressed = std::size_t{frameBytes} + 4;
    for (std::uint32_t count = 1; count <= 17; ++count) {
      for (const std::size_t stride : {std::size_t{frameBytes}, addressed}) {
        for (const ModuleId module : {ModuleId{0}, ModuleId{40} + count}) {
          SCOPED_TRACE(::testing::Message()
                       << "frameBytes " << frameBytes << " count " << count
                       << " stride " << stride << " module " << module);
          const std::uint32_t first = 1000 * count;
          const auto vector =
              framePayloads(true, module, first, count, frameBytes, stride);
          ASSERT_EQ(vector, framePayloads(false, module, first, count,
                                          frameBytes, stride));
          std::size_t content = 0;
          for (std::size_t at = 0; at < vector.size(); ++at) {
            const bool inFrame = at / stride < count && at % stride < frameBytes;
            if (!inFrame) {
              ASSERT_EQ(vector[at], 0) << "outside a frame at " << at;
            }
            content += vector[at] != 0;
          }
          if (module == 0) {
            EXPECT_EQ(content, 0u);
          } else if (frameBytes >= 63) {
            EXPECT_GT(content, 0u);  // P(no content) = 0.75^frameBytes
          }
        }
      }
    }
  }
}

// Whether the last byte of (module, frame) is decided by draw 63 of a
// 64-draw block and carries content, so that its value is the first draw of
// the next block: the one case where a frame ends across a block boundary.
bool lastFlagEndsBlock(ModuleId module, std::uint32_t frame,
                       std::uint32_t frameBytes) {
  util::Rng rng{module * 0x100000001b3ULL ^ frame};
  std::uint64_t draw = 0;
  for (std::uint32_t b = 0; b < frameBytes; ++b) {
    const std::uint64_t flagAt = draw++;
    if (rng() < (std::uint64_t{1} << 62)) {
      rng();
      ++draw;
      if (b + 1 == frameBytes && flagAt % 64 == 63) return true;
    }
  }
  return false;
}

TEST(FramePayloadsTest, ValueAcrossABlockBoundaryMatches) {
  constexpr ModuleId kModule = 7;
  constexpr std::uint32_t kFrameBytes = 164;
  std::uint32_t frame = 0;
  while (!lastFlagEndsBlock(kModule, frame, kFrameBytes)) ++frame;
  EXPECT_EQ(frame, 1090u);  // pinned, like the draw contract it follows from
  // The frame in every lane of a full group.
  for (std::uint32_t lane = 0; lane < 8; ++lane) {
    SCOPED_TRACE(::testing::Message() << "lane " << lane);
    const std::uint32_t first = frame - lane;
    const auto vector =
        framePayloads(true, kModule, first, 8, kFrameBytes, kFrameBytes);
    EXPECT_EQ(vector,
              framePayloads(false, kModule, first, 8, kFrameBytes, kFrameBytes));
    const std::size_t last = (lane + 1) * std::size_t{kFrameBytes} - 1;
    EXPECT_NE(vector[last], 0);  // the boundary value landed in the last byte
  }
  std::vector<std::uint8_t> scalar =
      framePayloads(false, kModule, frame, 1, kFrameBytes, kFrameBytes);
  scalar.resize(kFrameBytes);
  EXPECT_EQ(framePayload(kModule, frame, 1, frame, kFrameBytes), scalar);
}

TEST(FramePayloadsTest, RejectsFramesPastTheBuffer) {
  std::vector<std::uint8_t> out(100, 0);
  EXPECT_THROW(writeFramePayloads(1, 0, 2, 60, out, 60), util::DomainError);
  EXPECT_THROW(writeFramePayloads(1, 0, 2, 40, out, 30), util::DomainError);
  EXPECT_NO_THROW(writeFramePayloads(1, 0, 2, 50, out, 50));
  EXPECT_NO_THROW(writeFramePayloads(1, 0, 0, 500, out, 500));
}

TEST(LibraryTest, ModuleFlowBuildsNStreamsPerRegion) {
  fabric::Floorplan plan = fabric::makeDualPrrLayout();
  std::vector<Library::ModuleSpec> specs{
      {11, "a", 0.3}, {12, "b", 0.5}, {13, "c", 0.8}};
  Library lib{plan, specs};
  const FlowStats stats = lib.buildModuleFlow();
  // Paper section 2.2: n bitstreams per region for n modules.
  EXPECT_EQ(stats.streamCount, 2u * 3u);
  EXPECT_EQ(stats.minBytes, stats.maxBytes);  // all the same size
}

TEST(LibraryTest, DifferenceFlowBuildsNTimesNMinusOne) {
  fabric::Floorplan plan = fabric::makeDualPrrLayout();
  std::vector<Library::ModuleSpec> specs{
      {11, "a", 0.3}, {12, "b", 0.5}, {13, "c", 0.8}};
  Library lib{plan, specs};
  const FlowStats stats = lib.buildDifferenceFlow();
  EXPECT_EQ(stats.streamCount, 2u * 3u * 2u);  // n(n-1) per region
  EXPECT_LT(stats.minBytes, stats.maxBytes);   // variable sizes
}

TEST(LibraryTest, FlowStreamCountFormulas) {
  EXPECT_EQ(Library::moduleFlowStreams(5), 5u);
  EXPECT_EQ(Library::differenceFlowStreams(5), 20u);
}

TEST(LibraryTest, RejectsReservedModuleId) {
  fabric::Floorplan plan = fabric::makeDualPrrLayout();
  std::vector<Library::ModuleSpec> specs{{0, "bad", 0.5}};
  EXPECT_THROW((Library{plan, specs}), util::DomainError);
}

TEST(LibraryTest, CachesStreams) {
  fabric::Floorplan plan = fabric::makeDualPrrLayout();
  std::vector<Library::ModuleSpec> specs{{11, "a", 0.3}};
  Library lib{plan, specs};
  const Bitstream& first = lib.modulePartial(0, 11);
  const Bitstream& second = lib.modulePartial(0, 11);
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(&lib.full(), &lib.full());
}

// FNV-1a (64-bit) of a stream's bytes.
std::uint64_t fnv1a(const Bitstream& stream) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const std::uint8_t b : stream.bytes()) {
    h = (h ^ b) * 0x100000001B3ULL;
  }
  return h;
}

// Calls `visit(name, plan, stream)` for every stream a two-module Library
// holds on the single, dual and quad layouts, named "<layout>/<stream>".
void forEachLibraryStream(
    const std::function<void(const std::string&, const fabric::Floorplan&,
                             const Bitstream&)>& visit) {
  using Layout = fabric::Floorplan (*)();
  const std::pair<std::string, Layout> layouts[] = {
      {"single", &fabric::makeSinglePrrLayout},
      {"dual", &fabric::makeDualPrrLayout},
      {"quad", &fabric::makeQuadPrrLayout}};
  const std::vector<Library::ModuleSpec> modules{{1, "median", 0.45},
                                                 {2, "sobel", 0.8}};
  for (const auto& [layoutName, make] : layouts) {
    const fabric::Floorplan plan = make();
    Library lib{plan, modules};
    visit(layoutName + "/full", plan, lib.full());
    for (std::size_t prr = 0; prr < plan.prrCount(); ++prr) {
      const std::string at = layoutName + "/prr" + std::to_string(prr);
      for (const auto& m : modules) {
        const std::string id = std::to_string(m.id);
        visit(at + "/module" + id, plan, lib.modulePartial(prr, m.id));
        visit(at + "/reload" + id, plan, lib.prrReload(prr, m.id));
        for (const auto& to : modules) {
          if (to.id == m.id) continue;
          visit(at + "/diff" + id + "to" + std::to_string(to.id), plan,
                lib.differencePartial(prr, m.id, to.id));
        }
      }
    }
  }
}

// Hashes every stream forEachLibraryStream visits.
std::vector<std::pair<std::string, std::uint64_t>> libraryStreamHashes() {
  std::vector<std::pair<std::string, std::uint64_t>> hashes;
  forEachLibraryStream([&hashes](const std::string& name,
                                 const fabric::Floorplan&,
                                 const Bitstream& stream) {
    hashes.emplace_back(name, fnv1a(stream));
  });
  return hashes;
}

// The CRC-32 of `stream`'s bytes before the trailer, recomputed over frames
// the scalar reference writes (the header block is read from bytes()).
std::uint32_t scalarReferenceCrc(const Bitstream& stream) {
  const FrameRecipe& recipe = *stream.recipe();
  const Header& header = stream.header();
  const std::size_t address = stream.isPartial() ? 4 : 0;
  util::Crc32 crc;
  crc.update(std::span{stream.bytes()}.first(recipe.headerBytes));
  std::vector<std::uint8_t> frame(header.frameBytes + address);
  for (const FrameRun& run : recipe.runs) {
    for (std::uint32_t f = run.first; f - run.first < run.count; ++f) {
      std::fill(frame.begin(), frame.end(), 0);
      for (std::size_t b = 0; b < address; ++b) {
        frame[b] = static_cast<std::uint8_t>(f >> (8 * b));
      }
      if (f - recipe.regionFirst < recipe.framesUsed) {
        detail::writeFramePayloadsScalar(
            header.moduleId, f, 1, header.frameBytes,
            std::span{frame}.subspan(address), frame.size());
      }
      crc.update(frame);
    }
  }
  return crc.value();
}

// Every Library stream is a recipe. Its materialized bytes byte-parse with
// the CRC check (BS006) active, carry the recipe's header, frame runs and
// CRC, and hold exactly the payloads the recipe's accessor synthesizes.
TEST(LibraryTest, MaterializedStreamsMatchTheirRecipes) {
  forEachLibraryStream([](const std::string& name,
                          const fabric::Floorplan& plan,
                          const Bitstream& stream) {
    SCOPED_TRACE(name);
    const FrameRecipe* recipe = stream.recipe();
    ASSERT_NE(recipe, nullptr);
    const ParsedStream& fromRecipe = *parse(stream, plan.device());
    const std::vector<std::uint8_t>& bytes = stream.bytes();
    ASSERT_EQ(bytes.size(), stream.size().count());
    const ParsedStream fromBytes = parse(std::span{bytes}, plan.device());
    EXPECT_EQ(readU32(bytes, bytes.size() - 4), stream.crc());
    EXPECT_EQ(fromBytes.header, stream.header());
    EXPECT_EQ(fromBytes.frameRuns, recipe->runs);
    EXPECT_EQ(fromRecipe.frameRuns, recipe->runs);
    EXPECT_EQ(payloadsOf(fromRecipe), payloadsOf(fromBytes));
  });
}

// A recipe's CRC does not depend on the payload path that synthesized it:
// recomputed over frames the scalar reference writes, it equals the CRC
// crc() computed through the dispatched (on AVX2 CPUs, vector) kernel.
TEST(LibraryTest, RecipeCrcMatchesTheScalarReference) {
  SCOPED_TRACE(detail::framePayloadsVectorized() ? "AVX2 kernel" : "scalar");
  forEachLibraryStream([](const std::string& name, const fabric::Floorplan&,
                          const Bitstream& stream) {
    SCOPED_TRACE(name);
    EXPECT_EQ(scalarReferenceCrc(stream), stream.crc());
  });
}

// Eight threads asking one fresh recipe stream for its CRC race to run the
// lazy pass; every one of them gets the scalar reference's value.
TEST_F(BitstreamTest, ConcurrentCrcCallsAgree) {
  constexpr std::size_t kThreads = 8;
  const Bitstream fresh = builder_.buildModulePartial(plan_.prr(1), 9, 0.6);
  ASSERT_FALSE(fresh.recipe()->crc.has_value());
  const std::uint32_t expected = scalarReferenceCrc(Bitstream{fresh});
  std::atomic<std::size_t> arrived{0};
  std::vector<std::uint32_t> got(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(2);
      while (arrived.load() < kThreads &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      got[i] = fresh.crc();
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::uint32_t crc : got) EXPECT_EQ(crc, expected);
  EXPECT_EQ(fresh.crc(), expected);
}

// Frames synthesized (the host.bitstream.frames_synthesized sum) and lazy
// passes timed (host.bitstream.materialize_ns observations) since `before`.
struct SynthesisDelta {
  std::int64_t frames = 0;
  std::uint64_t passes = 0;
};

SynthesisDelta synthesisSince(const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot delta =
      obs::hostMetrics().snapshot().diff(before);
  SynthesisDelta out;
  if (const auto it = delta.histograms.find("host.bitstream.frames_synthesized");
      it != delta.histograms.end()) {
    out.frames = it->second.sum;
  }
  if (const auto it = delta.histograms.find("host.bitstream.materialize_ns");
      it != delta.histograms.end()) {
    out.passes = it->second.count;
  }
  return out;
}

// The seven streams of a dual-PRR Fig-9 node (the full stream and one
// module partial per PRR and paper function), built by a fresh Library
// with no cache: building them synthesizes no frame; the first crc()
// synthesizes each stream's frames once, a second none; bytes() then
// synthesizes them once more, for its independent CRC check.
TEST(LibraryTest, Fig9StreamsSynthesizeNoFrameUntilRead) {
  const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  Library library{plan,
                  registry.moduleSpecs(plan.prr(0).resources(plan.device()))};

  const obs::MetricsSnapshot before = obs::hostMetrics().snapshot();
  std::vector<const Bitstream*> streams{&library.full()};
  for (std::size_t prr = 0; prr < plan.prrCount(); ++prr) {
    for (const tasks::HwFunction& fn : registry.all()) {
      streams.push_back(&library.modulePartial(prr, fn.id));
    }
  }
  ASSERT_EQ(streams.size(), 7u);
  const SynthesisDelta builds = synthesisSince(before);
  EXPECT_EQ(builds.frames, 0);
  EXPECT_EQ(builds.passes, 0u);

  for (const Bitstream* stream : streams) {
    const std::int64_t frameCount = stream->header().frameCount;
    SCOPED_TRACE(frameCount);
    const auto expectRead = [&](auto read, std::int64_t frames,
                                std::uint64_t passes) {
      const obs::MetricsSnapshot start = obs::hostMetrics().snapshot();
      read();
      const SynthesisDelta delta = synthesisSince(start);
      EXPECT_EQ(delta.frames, frames);
      EXPECT_EQ(delta.passes, passes);
    };
    expectRead([&] { (void)stream->crc(); }, frameCount, 1);
    expectRead([&] { (void)stream->crc(); }, 0, 0);
    expectRead([&] { (void)stream->bytes(); }, frameCount, 1);
  }
}

// Pins the synthesized bytes of every Library stream, CRC trailer included:
// a change to payload synthesis, framing or the CRC-32 shows up here.
TEST(LibraryTest, StreamBytesArePinned) {
  const std::vector<std::pair<std::string, std::uint64_t>> expected{
      {"single/full", 0x4EAE97C8CB7094CCULL},
      {"single/prr0/module1", 0xD3235EBEB6520DAEULL},
      {"single/prr0/reload1", 0x72634E55C2DAE50EULL},
      {"single/prr0/diff1to2", 0xDA1377D85C322584ULL},
      {"single/prr0/module2", 0xAE550FA0AE0BEB68ULL},
      {"single/prr0/reload2", 0xC0F0FC1C05B4203AULL},
      {"single/prr0/diff2to1", 0x51DEFAE6365AB8F9ULL},
      {"dual/full", 0x4EAE97C8CB7094CCULL},
      {"dual/prr0/module1", 0xF39F54DACD5C4E4FULL},
      {"dual/prr0/reload1", 0x6F386960E2A0A9E6ULL},
      {"dual/prr0/diff1to2", 0xBE675C6636D09C61ULL},
      {"dual/prr0/module2", 0xB39EA087C2F1FA6CULL},
      {"dual/prr0/reload2", 0x9DAB3DE1BC3F6E43ULL},
      {"dual/prr0/diff2to1", 0x94C6144528800C6FULL},
      {"dual/prr1/module1", 0x88AE96E802AD2E15ULL},
      {"dual/prr1/reload1", 0x70E94643AF6F7719ULL},
      {"dual/prr1/diff1to2", 0x56723D2254B6B7A8ULL},
      {"dual/prr1/module2", 0xE665397CDC748D16ULL},
      {"dual/prr1/reload2", 0xE6AC28EF94E33D1EULL},
      {"dual/prr1/diff2to1", 0x334CE9C7D12D0A16ULL},
      {"quad/full", 0x4EAE97C8CB7094CCULL},
      {"quad/prr0/module1", 0x202C9974B7DDEDABULL},
      {"quad/prr0/reload1", 0x8E0EBCCCC6E5BD66ULL},
      {"quad/prr0/diff1to2", 0x3160AEE5B09CD034ULL},
      {"quad/prr0/module2", 0x01097A2B556E03CCULL},
      {"quad/prr0/reload2", 0x1E4BEA05EE6E953BULL},
      {"quad/prr0/diff2to1", 0x59408EA17245C14AULL},
      {"quad/prr1/module1", 0x247602F694762368ULL},
      {"quad/prr1/reload1", 0xC011441F5D1B2233ULL},
      {"quad/prr1/diff1to2", 0xB9784113BDD3BF3FULL},
      {"quad/prr1/module2", 0x23FEEC7760E44AD7ULL},
      {"quad/prr1/reload2", 0x1BE9B464AC89544BULL},
      {"quad/prr1/diff2to1", 0x04CD36F2A576A685ULL},
      {"quad/prr2/module1", 0x232FC8226B1635F6ULL},
      {"quad/prr2/reload1", 0x61C352CD40A3B7FBULL},
      {"quad/prr2/diff1to2", 0xC8ABE150BB5FF732ULL},
      {"quad/prr2/module2", 0x8D4D3410164A1CB4ULL},
      {"quad/prr2/reload2", 0x10E5D89592C153FBULL},
      {"quad/prr2/diff2to1", 0xF60126FE3FC5C380ULL},
      {"quad/prr3/module1", 0xCF798071D8F4126AULL},
      {"quad/prr3/reload1", 0xE6A935C893A4CB8EULL},
      {"quad/prr3/diff1to2", 0x9685A68719FCCD83ULL},
      {"quad/prr3/module2", 0x3710B4551B9D7061ULL},
      {"quad/prr3/reload2", 0x680D85729002CBE4ULL},
      {"quad/prr3/diff2to1", 0xCECD81FB896FEA44ULL},
  };
  const auto actual = libraryStreamHashes();
  EXPECT_EQ(actual, expected) << [&] {
    std::string table;
    for (const auto& [name, hash] : actual) {
      char line[96];
      std::snprintf(line, sizeof line, "      {\"%s\", 0x%016llXULL},\n",
                    name.c_str(), static_cast<unsigned long long>(hash));
      table += line;
    }
    return table;
  }();
}

}  // namespace
}  // namespace prtr::bitstream
