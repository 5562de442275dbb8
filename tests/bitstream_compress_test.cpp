// Tests for the ZRL codec and the multi-frame-write (MFW) planner.
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "bitstream/builder.hpp"
#include "bitstream/compress.hpp"
#include "bitstream/parser.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::bitstream {
namespace {

std::vector<std::uint8_t> randomData(std::size_t n, double zeroFraction,
                                     std::uint64_t seed) {
  util::Rng rng{seed};
  std::vector<std::uint8_t> data(n);
  for (auto& b : data) {
    b = rng.chance(zeroFraction) ? 0 : static_cast<std::uint8_t>(rng() | 1);
  }
  return data;
}

TEST(ZrlTest, EmptyInput) {
  EXPECT_TRUE(zrlCompress({}).empty());
  EXPECT_TRUE(zrlDecompress({}).empty());
}

TEST(ZrlTest, AllZerosCompressHard) {
  const std::vector<std::uint8_t> zeros(10'000, 0);
  const auto compressed = zrlCompress(zeros);
  EXPECT_LT(compressed.size(), 8u);  // one long-run token chain
  EXPECT_EQ(zrlDecompress(compressed), zeros);
}

TEST(ZrlTest, IncompressibleDataExpandsOnlySlightly) {
  const auto data = randomData(10'000, 0.0, 5);
  const auto compressed = zrlCompress(data);
  // Literal framing adds 2 bytes per 256: <1% overhead.
  EXPECT_LT(compressed.size(), data.size() + data.size() / 64 + 8);
  EXPECT_EQ(zrlDecompress(compressed), data);
}

TEST(ZrlTest, RoundTripPropertyAcrossDensities) {
  for (const double zeroFraction : {0.1, 0.5, 0.75, 0.95}) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      const auto data = randomData(4'096, zeroFraction, seed);
      const auto back = zrlDecompress(zrlCompress(data));
      ASSERT_EQ(back, data) << "zeroFraction=" << zeroFraction
                            << " seed=" << seed;
    }
  }
}

TEST(ZrlTest, RatioImprovesWithSparsity) {
  const double dense = zrlRatio(randomData(8'192, 0.25, 7));
  const double sparse = zrlRatio(randomData(8'192, 0.85, 7));
  EXPECT_LT(sparse, dense);
  EXPECT_LT(sparse, 0.6);
}

TEST(ZrlTest, RunBoundaries) {
  // Runs straddling the short/long encoding boundary must round-trip.
  for (const std::size_t runLength : {1u, 254u, 255u, 256u, 257u, 70'000u}) {
    std::vector<std::uint8_t> data(runLength, 0);
    data.push_back(0x42);
    EXPECT_EQ(zrlDecompress(zrlCompress(data)), data) << runLength;
  }
}

TEST(ZrlTest, MalformedInputRejected) {
  EXPECT_THROW(zrlDecompress(std::vector<std::uint8_t>{0x00}),
               util::BitstreamError);  // truncated run
  EXPECT_THROW(zrlDecompress(std::vector<std::uint8_t>{0x01, 0x05, 0x11}),
               util::BitstreamError);  // literal overruns
  EXPECT_THROW(zrlDecompress(std::vector<std::uint8_t>{0x7F}),
               util::BitstreamError);  // unknown token
  EXPECT_THROW(zrlDecompress(std::vector<std::uint8_t>{0x00, 0xFF, 0x01}),
               util::BitstreamError);  // truncated long run
}

TEST(ZrlTest, PartialBitstreamsCompressWell) {
  // Sparse frame payloads (~25% content) plus all-zero unoccupied frames:
  // a half-occupied module stream should shrink by more than 2x.
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream stream = builder.buildModulePartial(plan.prr(0), 7, 0.5);
  const double ratio = zrlRatio(stream.bytes());
  EXPECT_LT(ratio, 0.5);
  EXPECT_EQ(zrlDecompress(zrlCompress(stream.bytes())), stream.bytes());
}

/// `stream`'s payloads grouped by content, read from its materialized bytes
/// by the span parse: the count an MFW plan must find.
std::uint32_t distinctPayloads(const Bitstream& stream,
                               const fabric::Device& device) {
  std::set<std::vector<std::uint8_t>> payloads;
  parse(std::span{stream.bytes()}, device)
      .forEachPayload(
          [&](std::uint32_t, std::span<const std::uint8_t> payload) {
            payloads.emplace(payload.begin(), payload.end());
          });
  return static_cast<std::uint32_t>(payloads.size());
}

TEST(MfwTest, DedupCountsUnoccupiedFramesOnce) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const Builder builder{plan.device()};
  // 30% occupancy: ~70% of frames are identical (all-zero) fill.
  const Bitstream stream = builder.buildModulePartial(plan.prr(0), 7, 0.3);
  const MfwPlan plan30 = planMfw(stream, plan.device());
  EXPECT_EQ(plan30.totalFrames, 380u);
  // 114 occupied distinct frames + 1 shared zero frame.
  EXPECT_EQ(plan30.uniqueFrames, 115u);
  EXPECT_EQ(plan30.uniqueFrames, distinctPayloads(stream, plan.device()));
  EXPECT_LT(plan30.wireBytes.count(), plan30.rawBytes.count());
  EXPECT_NEAR(plan30.frameDedupRatio(), 115.0 / 380.0, 1e-12);
  // The plan is memoized with the stream's parse, and a byte-backed copy
  // of the same bytes plans the same.
  EXPECT_EQ(parse(stream, plan.device())->mfw.get()->uniqueFrames, 115u);
  const MfwPlan fromBytes =
      planMfw(Bitstream{stream.header(), stream.bytes()}, plan.device());
  EXPECT_EQ(fromBytes.uniqueFrames, plan30.uniqueFrames);
  EXPECT_EQ(fromBytes.wireBytes, plan30.wireBytes);
}

TEST(MfwTest, FullyOccupiedModuleGainsLittle) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream stream = builder.buildModulePartial(plan.prr(0), 7, 1.0);
  const MfwPlan mfw = planMfw(stream, plan.device());
  EXPECT_EQ(mfw.uniqueFrames, mfw.totalFrames);  // every frame distinct
  EXPECT_EQ(mfw.uniqueFrames, distinctPayloads(stream, plan.device()));
}

TEST(MfwTest, RejectsFullStreams) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const Builder builder{plan.device()};
  EXPECT_THROW((void)planMfw(builder.buildFull(1), plan.device()),
               util::BitstreamError);
}

TEST(MfwTest, DrainTimeScalesWithUniqueFrames) {
  MfwPlan plan;
  plan.totalFrames = 380;
  plan.uniqueFrames = 115;
  const util::Time perFrame = util::Time::microseconds(52);
  const util::Time perAddress = util::Time::nanoseconds(200);
  const util::Time t = mfwDrainTime(plan, perFrame, perAddress);
  EXPECT_EQ(t, perFrame * 115 + perAddress * 380);
  // Versus writing everything: ~3.3x faster.
  const util::Time raw = perFrame * 380 + perAddress * 380;
  EXPECT_GT(raw.toSeconds() / t.toSeconds(), 3.0);
}

}  // namespace
}  // namespace prtr::bitstream
