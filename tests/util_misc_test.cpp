// Tests for CRC-32, the deterministic RNG, statistics, tables, plots, and
// the JSON parser's \u escapes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/plot.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace prtr::util {
namespace {

TEST(Crc32Test, KnownVector) {
  // CRC-32 of "123456789" is the classic check value 0xCBF43926.
  const std::string s = "123456789";
  const auto crc = Crc32::of(
      std::span{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  std::vector<std::uint8_t> data(1000);
  Rng rng{42};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  Crc32 inc;
  inc.update(std::span{data.data(), 400});
  inc.update(std::span{data.data() + 400, 600});
  EXPECT_EQ(inc.value(), Crc32::of(data));
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const auto before = Crc32::of(data);
  data[17] ^= 0x04;
  EXPECT_NE(before, Crc32::of(data));
}

// update() may take the carry-less-multiply kernel; detail::crc32Table is
// the portable table loop it must agree with bit for bit.
std::uint32_t tableCrc(std::span<const std::uint8_t> data) {
  return ~detail::crc32Table(0xFFFFFFFFu, data);
}

TEST(Crc32Test, MatchesTableAtEveryLengthAndAlignment) {
  std::vector<std::uint8_t> data(4200 + 16);
  Rng rng{7};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (std::size_t offset = 0; offset < 16; ++offset) {
    for (std::size_t length = 0; length <= 4200; ++length) {
      const std::span<const std::uint8_t> view{data.data() + offset, length};
      ASSERT_EQ(Crc32::of(view), tableCrc(view))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32Test, MatchesTableAtRandomSplits) {
  std::vector<std::uint8_t> data(20'000);
  Rng rng{11};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::uint32_t expected = tableCrc(data);
  for (int trial = 0; trial < 50; ++trial) {
    Crc32 inc;
    std::size_t at = 0;
    while (at < data.size()) {
      // Pieces straddle the 64 B kernel threshold and the 16 B fold width.
      const std::size_t piece =
          std::min<std::size_t>(rng.below(300), data.size() - at);
      inc.update(std::span{data.data() + at, piece});
      at += piece;
    }
    ASSERT_EQ(inc.value(), expected) << "trial " << trial;
  }
}

TEST(Crc32Test, MatchesTableOnConstantMegabytes) {
  for (const std::uint8_t fill : {std::uint8_t{0x00}, std::uint8_t{0xFF}}) {
    const std::vector<std::uint8_t> data(1u << 20, fill);
    EXPECT_EQ(Crc32::of(data), tableCrc(data)) << "fill " << int{fill};
  }
}

TEST(Crc32Test, CombineMatchesTheConcatenation) {
  std::vector<std::uint8_t> data(5000);
  Rng rng{13};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  const std::span<const std::uint8_t> all{data};
  for (const std::size_t split : {0u, 1u, 15u, 16u, 64u, 1000u, 4999u, 5000u}) {
    const auto a = all.first(split);
    for (const std::size_t lengthB :
         {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{100},
          data.size() - split}) {
      const auto b = all.subspan(split, std::min(lengthB, data.size() - split));
      Crc32 whole;
      whole.update(a);
      whole.update(b);
      ASSERT_EQ(Crc32::combine(Crc32::of(a), Crc32::of(b), b.size()),
                whole.value())
          << "split " << split << " length " << b.size();
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a{7};
  Rng b{7};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int differing = 0;
  for (int i = 0; i < 32; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 28);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng{11};
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng{13};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RngTest, RangeInclusive) {
  Rng rng{17};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng{23};
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.exponential(4.0));
  EXPECT_NEAR(stats.mean(), 4.0, 0.1);
}

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStatsTest, MergeMatchesSequential) {
  Rng rng{31};
  RunningStats whole;
  RunningStats partA;
  RunningStats partB;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-3.0, 5.0);
    whole.add(x);
    (i % 2 == 0 ? partA : partB).add(x);
  }
  partA.merge(partB);
  EXPECT_EQ(partA.count(), whole.count());
  EXPECT_NEAR(partA.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(partA.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(partA.min(), whole.min());
  EXPECT_DOUBLE_EQ(partA.max(), whole.max());
}

TEST(HistogramTest, BinningAndQuantiles) {
  Histogram h{0.0, 10.0, 10};
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) / 10.0);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.binCount(0), 10u);
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
}

TEST(HistogramTest, OutOfRangeClamped) {
  Histogram h{0.0, 1.0, 4};
  h.add(-5.0);
  h.add(99.0);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 2u);
}

TEST(ExactQuantileTest, MedianAndExtremes) {
  std::vector<double> v{5.0, 1.0, 3.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(exactQuantile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(exactQuantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(exactQuantile(v, 1.0), 5.0);
  EXPECT_THROW((void)exactQuantile({}, 0.5), DomainError);
}

TEST(RelativeErrorTest, Basics) {
  EXPECT_NEAR(relativeError(1.1, 1.0), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(relativeError(1.0, 1.0), 0.0);
}

TEST(TableTest, AlignmentAndCsv) {
  Table t{{"name", "value"}};
  t.row().cell("alpha").cell(3.14159, 3);
  t.row().cell("a,b").cell(std::uint64_t{42});
  const std::string text = t.toString();
  EXPECT_NE(text.find("| alpha"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  const std::string csv = t.toCsv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TableTest, RejectsOverfullRow) {
  Table t{{"only"}};
  t.row().cell("x");
  EXPECT_THROW(t.cell("y"), DomainError);
}

TEST(PlotTest, RendersSeriesAndLegend) {
  Series s{"line", {1.0, 2.0, 3.0}, {1.0, 4.0, 9.0}};
  PlotOptions opts;
  opts.width = 40;
  opts.height = 10;
  opts.title = "squares";
  const std::string out = renderAsciiPlot({s}, opts);
  EXPECT_NE(out.find("squares"), std::string::npos);
  EXPECT_NE(out.find("[*] line"), std::string::npos);
  EXPECT_NE(out.find('*'), std::string::npos);
}

TEST(PlotTest, LogAxesSkipNonPositive) {
  Series s{"log", {0.0, 1.0, 10.0, 100.0}, {1.0, 1.0, 2.0, 3.0}};
  PlotOptions opts;
  opts.logX = true;
  EXPECT_NO_THROW(renderAsciiPlot({s}, opts));
}

TEST(PlotTest, RejectsEmpty) {
  EXPECT_THROW(renderAsciiPlot({}, PlotOptions{}), DomainError);
}

TEST(HeatmapTest, RendersRampAndBounds) {
  std::vector<std::vector<double>> grid{{0.0, 0.5, 1.0}, {1.0, 0.5, 0.0}};
  HeatmapOptions opts;
  opts.title = "ramp";
  const std::string out = renderHeatmap(grid, opts);
  EXPECT_NE(out.find("ramp"), std::string::npos);
  EXPECT_NE(out.find('@'), std::string::npos);  // max value glyph
  EXPECT_NE(out.find(' '), std::string::npos);  // min value glyph
  EXPECT_NE(out.find("[0, 1]"), std::string::npos);
}

TEST(HeatmapTest, LogScaleAndValidation) {
  std::vector<std::vector<double>> grid{{1.0, 10.0, 100.0}};
  HeatmapOptions opts;
  opts.logScale = true;
  const std::string out = renderHeatmap(grid, opts);
  EXPECT_NE(out.find("log10"), std::string::npos);
  EXPECT_THROW(renderHeatmap({}, opts), DomainError);
  EXPECT_THROW(renderHeatmap({{1.0, 2.0}, {1.0}}, opts), DomainError);
}

/// The message of the DomainError that parsing `text` throws, or "" when
/// it parses.
std::string jsonError(std::string_view text) {
  try {
    (void)json::Value::parse(text);
  } catch (const DomainError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(json::Value::parse(R"("a\u0041b")").asString(), "aAb");
  // U+00E9 (2 bytes), U+20AC (3 bytes), U+1F600 as a surrogate pair (4).
  EXPECT_EQ(json::Value::parse(R"("\u00e9")").asString(), "\xC3\xA9");
  EXPECT_EQ(json::Value::parse(R"("\u20AC")").asString(), "\xE2\x82\xAC");
  EXPECT_EQ(json::Value::parse(R"("\ud83D\uDE00!")").asString(),
            "\xF0\x9F\x98\x80!");
}

TEST(JsonTest, MalformedUnicodeEscapesAreCoded) {
  EXPECT_EQ(jsonError(R"("\u12")"), "json: truncated \\u escape at offset 3");
  EXPECT_EQ(jsonError(R"("\u12G4")"),
            "json: bad hex digit in \\u escape at offset 6");
  EXPECT_EQ(jsonError(R"("\ud83d")"), "json: lone high surrogate at offset 7");
  EXPECT_EQ(jsonError(R"("\ud83dx")"), "json: lone high surrogate at offset 7");
  EXPECT_EQ(jsonError(R"("\ud83d\u0041")"),
            "json: bad low surrogate at offset 13");
  EXPECT_EQ(jsonError(R"("\ude00")"), "json: lone low surrogate at offset 7");
}

}  // namespace
}  // namespace prtr::util
