// Tests for the prtr::analyze static-diagnostics subsystem: rule catalog
// integrity, golden text/JSON renderings, per-rule reachability for every
// documented code, delegation from the owning validators, and the
// spec-file front end used by prtr-lint.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analyze/checks_bitstream.hpp"
#include "analyze/checks_fault.hpp"
#include "analyze/checks_fleet.hpp"
#include "analyze/checks_floorplan.hpp"
#include "analyze/checks_model.hpp"
#include "analyze/checks_scenario.hpp"
#include "analyze/diagnostic.hpp"
#include "analyze/lint.hpp"
#include "analyze/spec.hpp"
#include "bitstream/builder.hpp"
#include "bitstream/parser.hpp"
#include "fabric/device.hpp"
#include "fabric/floorplan.hpp"
#include "model/model.hpp"
#include "model/params.hpp"
#include "runtime/cache.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/scenario.hpp"
#include "sim/trace.hpp"
#include "tasks/workload.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "verify/race.hpp"
#include "verify/request_rules.hpp"
#include "verify/schedule.hpp"
#include "verify/timeline_rules.hpp"
#include "verify/trace_load.hpp"

namespace prtr {
namespace {

using analyze::Category;
using analyze::DiagnosticSink;
using analyze::Severity;

fabric::Region prr(std::string name, std::size_t first, std::size_t count) {
  return fabric::Region{std::move(name), fabric::RegionRole::kPrr, first,
                        count};
}

fabric::BusMacro macro(std::string prrName,
                       fabric::BusMacro::Direction direction,
                       std::size_t boundary) {
  return fabric::BusMacro{std::move(prrName), direction, 8, boundary};
}

/// One balanced l2r/r2l pair pinned to `boundary` (keeps FP007/FP008 quiet).
std::vector<fabric::BusMacro> macroPair(const std::string& prrName,
                                        std::size_t boundary) {
  return {macro(prrName, fabric::BusMacro::Direction::kLeftToRight, boundary),
          macro(prrName, fabric::BusMacro::Direction::kRightToLeft, boundary)};
}

DiagnosticSink lintFloorplanParts(
    const fabric::Device& device, const std::vector<fabric::Region>& prrs,
    const std::vector<fabric::BusMacro>& macros) {
  DiagnosticSink sink;
  analyze::checkFloorplan(device, prrs, macros, sink);
  return sink;
}

void patchU32(std::vector<std::uint8_t>& bytes, std::size_t offset,
              std::uint32_t value) {
  ASSERT_LE(offset + 4, bytes.size());
  bytes[offset] = static_cast<std::uint8_t>(value & 0xFF);
  bytes[offset + 1] = static_cast<std::uint8_t>((value >> 8) & 0xFF);
  bytes[offset + 2] = static_cast<std::uint8_t>((value >> 16) & 0xFF);
  bytes[offset + 3] = static_cast<std::uint8_t>((value >> 24) & 0xFF);
}

/// Recomputes the CRC-32 trailer so only the intended defect is visible.
void fixCrc(std::vector<std::uint8_t>& bytes) {
  const std::uint32_t crc = util::Crc32::of(
      std::span<const std::uint8_t>{bytes.data(), bytes.size() - 4});
  patchU32(bytes, bytes.size() - 4, crc);
}

DiagnosticSink scanBytes(const std::vector<std::uint8_t>& bytes,
                         const fabric::Device& device) {
  DiagnosticSink sink;
  (void)analyze::scanStream(bytes, device, sink);
  return sink;
}

model::Params goodParams() {
  model::Params p;
  p.nCalls = 1000;
  p.xTask = 0.5;
  p.xPrtr = 0.4;
  p.xControl = 0.001;
  p.xDecision = 0.0;
  p.hitRatio = 0.0;
  return p;
}

// ---------------------------------------------------------------------------
// Rule catalog
// ---------------------------------------------------------------------------

TEST(RuleCatalog, CodesAreGroupedSortedUniqueAndPrefixConsistent) {
  const auto catalog = analyze::ruleCatalog();
  ASSERT_FALSE(catalog.empty());
  std::set<std::string> seen;
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    const analyze::RuleInfo& rule = catalog[i];
    const std::string code = rule.code;
    ASSERT_EQ(code.size(), 5u) << code;
    const std::string prefix = code.substr(0, 2);
    const Category expected = prefix == "FP"   ? Category::kFloorplan
                              : prefix == "BS" ? Category::kBitstream
                              : prefix == "MD" ? Category::kModel
                              : prefix == "FT" ? Category::kFault
                              : prefix == "FL" ? Category::kFleet
                              : prefix == "TR" ? Category::kTracing
                              : prefix == "SL" ? Category::kSlo
                              : prefix == "RC" ? Category::kRace
                              : prefix == "TL" ? Category::kTimeline
                              : prefix == "RQ" ? Category::kRequest
                                               : Category::kDeterminism;
    EXPECT_TRUE(prefix == "FP" || prefix == "BS" || prefix == "MD" ||
                prefix == "FT" || prefix == "FL" || prefix == "TR" ||
                prefix == "SL" || prefix == "RC" || prefix == "TL" ||
                prefix == "RQ" || prefix == "DT")
        << code;
    EXPECT_EQ(rule.category, expected) << code;
    EXPECT_STRNE(rule.summary, "") << code;
    EXPECT_STRNE(rule.fixHint, "") << code;
    EXPECT_TRUE(seen.insert(code).second) << "duplicate code " << code;
    // Grouped by family (FP, then BS, then MD) and sorted within a family.
    if (i > 0) {
      const std::string previous = catalog[i - 1].code;
      if (previous.substr(0, 2) == prefix) {
        EXPECT_LT(previous, code);
      } else {
        EXPECT_LE(static_cast<int>(catalog[i - 1].category),
                  static_cast<int>(rule.category))
            << previous << " before " << code;
      }
    }
    EXPECT_EQ(analyze::ruleInfo(code).code, rule.code);
  }
}

TEST(RuleCatalog, HasAtLeastTwelveCodesSpanningAllThreeCategories) {
  std::size_t fp = 0;
  std::size_t bs = 0;
  std::size_t md = 0;
  std::size_t ft = 0;
  std::size_t fl = 0;
  std::size_t tr = 0;
  std::size_t sl = 0;
  std::size_t rc = 0;
  std::size_t tl = 0;
  std::size_t rq = 0;
  std::size_t dt = 0;
  for (const analyze::RuleInfo& rule : analyze::ruleCatalog()) {
    switch (rule.category) {
      case Category::kFloorplan: ++fp; break;
      case Category::kBitstream: ++bs; break;
      case Category::kModel: ++md; break;
      case Category::kFault: ++ft; break;
      case Category::kFleet: ++fl; break;
      case Category::kTracing: ++tr; break;
      case Category::kSlo: ++sl; break;
      case Category::kRace: ++rc; break;
      case Category::kTimeline: ++tl; break;
      case Category::kRequest: ++rq; break;
      case Category::kDeterminism: ++dt; break;
    }
  }
  EXPECT_EQ(fp, 10u);
  EXPECT_EQ(bs, 11u);
  EXPECT_EQ(md, 12u);
  EXPECT_EQ(ft, 10u);
  EXPECT_EQ(fl, 17u);
  EXPECT_EQ(tr, 4u);
  EXPECT_EQ(sl, 5u);
  EXPECT_EQ(rc, 4u);
  EXPECT_EQ(tl, 7u);
  EXPECT_EQ(rq, 6u);
  EXPECT_EQ(dt, 3u);
  EXPECT_GE(fp + bs + md + ft + fl + tr + sl + rc + tl + rq + dt, 12u);
}

TEST(RuleCatalog, UnknownCodeThrows) {
  EXPECT_THROW((void)analyze::ruleInfo("ZZ999"), util::DomainError);
  DiagnosticSink sink;
  EXPECT_THROW(sink.emit("ZZ999", "here", "nope"), util::DomainError);
}

TEST(RuleCatalog, MarkdownReferenceListsEveryCode) {
  const std::string reference = analyze::renderRuleReference();
  for (const analyze::RuleInfo& rule : analyze::ruleCatalog()) {
    EXPECT_NE(reference.find(rule.code), std::string::npos) << rule.code;
  }
  EXPECT_NE(reference.find("## floorplan rules"), std::string::npos);
  EXPECT_NE(reference.find("## bitstream rules"), std::string::npos);
  EXPECT_NE(reference.find("## model rules"), std::string::npos);
  EXPECT_NE(reference.find("## fault rules"), std::string::npos);
  EXPECT_NE(reference.find("## fleet rules"), std::string::npos);
  EXPECT_NE(reference.find("## race rules"), std::string::npos);
  EXPECT_NE(reference.find("## timeline rules"), std::string::npos);
  EXPECT_NE(reference.find("## determinism rules"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DiagnosticSink rendering (golden outputs)
// ---------------------------------------------------------------------------

TEST(DiagnosticSink, GoldenJson) {
  DiagnosticSink sink;
  sink.emit("FP004", "PRR 'A'", "PRRs 'A' and 'B' overlap");
  EXPECT_EQ(sink.toJson(),
            "{\"errors\":1,\"warnings\":0,\"diagnostics\":["
            "{\"code\":\"FP004\",\"severity\":\"error\","
            "\"category\":\"floorplan\",\"location\":\"PRR 'A'\","
            "\"message\":\"PRRs 'A' and 'B' overlap\","
            "\"fixHint\":\"make the PRR column ranges disjoint\"}]}");
}

TEST(DiagnosticSink, GoldenText) {
  DiagnosticSink sink;
  sink.emit("MD007", "params", "asymptotic speedup is 0.9 <= 1",
            "raise the hit ratio");
  EXPECT_EQ(sink.toText(),
            "warning[MD007] params: asymptotic speedup is 0.9 <= 1 "
            "(fix: raise the hit ratio)\n"
            "0 error(s), 1 warning(s)\n");
}

TEST(DiagnosticSink, CountsFirstErrorAndCodes) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  EXPECT_THROW((void)sink.firstError(), util::DomainError);
  sink.emit("MD009", "options", "cache has no effect");   // warning
  sink.emit("MD011", "options", "unknown policy");        // error
  sink.emit("MD011", "options", "unknown policy again");  // duplicate code
  EXPECT_EQ(sink.errorCount(), 2u);
  EXPECT_EQ(sink.warningCount(), 1u);
  EXPECT_TRUE(sink.hasErrors());
  EXPECT_EQ(sink.firstError().code, "MD011");
  EXPECT_TRUE(sink.has("MD009"));
  EXPECT_FALSE(sink.has("MD010"));
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"MD009", "MD011"}));
}

TEST(DiagnosticSink, JsonEscaping) {
  EXPECT_EQ(analyze::jsonEscape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(analyze::jsonEscape(std::string_view{"\x01", 1}), "\\u0001");
}

// ---------------------------------------------------------------------------
// Floorplan rules
// ---------------------------------------------------------------------------

TEST(FloorplanRules, BuiltinLayoutsLintClean) {
  for (const fabric::Floorplan& plan :
       {fabric::makeSinglePrrLayout(), fabric::makeDualPrrLayout(),
        fabric::makeQuadPrrLayout()}) {
    const DiagnosticSink sink = lintFloorplanParts(
        plan.device(), plan.prrs(), plan.busMacros());
    EXPECT_TRUE(sink.empty()) << sink.toText();
  }
}

TEST(FloorplanRules, StaticRoleInPrrListIsFP001) {
  const fabric::Device device = fabric::makeXc2vp50();
  const std::vector<fabric::Region> regions{fabric::Region{
      "S", fabric::RegionRole::kStatic, 0, 4}};
  const DiagnosticSink sink =
      lintFloorplanParts(device, regions, macroPair("S", 4));
  EXPECT_TRUE(sink.has("FP001")) << sink.toText();
}

TEST(FloorplanRules, OutOfDeviceIsFP002) {
  const fabric::Device device = fabric::makeXc2vp50();
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("P", 80, 20)}, macroPair("P", 80));
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP002"}))
      << sink.toText();
}

TEST(FloorplanRules, PpcColumnIsFP003) {
  const fabric::Device device = fabric::makeXc2vp50();
  // Columns 65/66 on the XC2VP50 are the PPC/GCLK pair.
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("P", 60, 10)}, macroPair("P", 60));
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP003"}))
      << sink.toText();
}

TEST(FloorplanRules, OverlapIsFP004) {
  const fabric::Device device = fabric::makeXc2vp50();
  std::vector<fabric::BusMacro> macros = macroPair("A", 0);
  const auto more = macroPair("B", 6);
  macros.insert(macros.end(), more.begin(), more.end());
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("A", 0, 8), prr("B", 6, 8)}, macros);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP004"}))
      << sink.toText();
}

TEST(FloorplanRules, GhostPrrMacroIsFP005) {
  const fabric::Device device = fabric::makeXc2vp50();
  std::vector<fabric::BusMacro> macros = macroPair("A", 0);
  const auto ghost = macroPair("GHOST", 12);
  macros.insert(macros.end(), ghost.begin(), ghost.end());
  const DiagnosticSink sink =
      lintFloorplanParts(device, {prr("A", 0, 8)}, macros);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP005"}))
      << sink.toText();
}

TEST(FloorplanRules, OffBoundaryMacroIsFP006) {
  const fabric::Device device = fabric::makeXc2vp50();
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("A", 0, 8)}, macroPair("A", 3));  // interior column
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP006"}))
      << sink.toText();
}

TEST(FloorplanRules, NoMacrosIsFP007Warning) {
  const fabric::Device device = fabric::makeXc2vp50();
  const DiagnosticSink sink = lintFloorplanParts(device, {prr("A", 0, 8)}, {});
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP007"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST(FloorplanRules, UnbalancedMacrosIsFP008Warning) {
  const fabric::Device device = fabric::makeXc2vp50();
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("A", 0, 8)},
      {macro("A", fabric::BusMacro::Direction::kLeftToRight, 8)});
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP008"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST(FloorplanRules, DegenerateStaticRegionIsFP009Warning) {
  const fabric::Device device = fabric::makeXc2vp50();
  // Two PRRs swallowing every CLB column of the 83-column device (only the
  // PPC/GCLK pair at 65/66 is left out) leave zero LUTs for the static
  // design.
  std::vector<fabric::BusMacro> macros = macroPair("L", 65);
  const auto right = macroPair("R", 67);
  macros.insert(macros.end(), right.begin(), right.end());
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("L", 0, 65), prr("R", 67, 16)}, macros);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FP009"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST(FloorplanRules, DuplicateNameIsFP010) {
  const fabric::Device device = fabric::makeXc2vp50();
  std::vector<fabric::BusMacro> macros = macroPair("A", 0);
  const DiagnosticSink sink = lintFloorplanParts(
      device, {prr("A", 0, 8), prr("A", 20, 8)}, macros);
  EXPECT_TRUE(sink.has("FP010")) << sink.toText();
}

TEST(FloorplanRules, ConstructorDelegatesWithCodeInMessage) {
  try {
    const fabric::Floorplan plan{
        fabric::makeXc2vp50(), {prr("A", 0, 8), prr("B", 6, 8)}, {}};
    FAIL() << "overlapping floorplan constructed";
  } catch (const util::PlacementError& e) {
    EXPECT_NE(std::string{e.what()}.find("FP004"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Bitstream rules
// ---------------------------------------------------------------------------

class BitstreamRules : public ::testing::Test {
 protected:
  BitstreamRules()
      : device_(fabric::makeXc2vp50()),
        plan_(fabric::makeDualPrrLayout()),
        builder_(device_) {}

  std::vector<std::uint8_t> partialBytes(std::size_t prrIndex = 0) const {
    return builder_.buildModulePartial(plan_.prr(prrIndex), 7).bytes();
  }

  fabric::Device device_;
  fabric::Floorplan plan_;
  bitstream::Builder builder_;
};

TEST_F(BitstreamRules, BuilderOutputLintsClean) {
  EXPECT_TRUE(scanBytes(builder_.buildFull(1).bytes(), device_).empty());
  EXPECT_TRUE(scanBytes(partialBytes(), device_).empty());
  EXPECT_TRUE(
      scanBytes(builder_
                    .buildDifferencePartial(plan_.prr(0), 1, 1.0, 2, 1.0)
                    .bytes(),
                device_)
          .empty());
}

TEST_F(BitstreamRules, ShortStreamIsBS001) {
  const DiagnosticSink sink =
      scanBytes(std::vector<std::uint8_t>(16, 0), device_);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"BS001"}));
}

TEST_F(BitstreamRules, BadMagicIsBS002) {
  std::vector<std::uint8_t> bytes = partialBytes();
  patchU32(bytes, 0, 0xDEADBEEF);
  fixCrc(bytes);
  EXPECT_EQ(scanBytes(bytes, device_).codes(),
            (std::vector<std::string>{"BS002"}));
}

TEST_F(BitstreamRules, UnknownTypeIsBS003) {
  std::vector<std::uint8_t> bytes = partialBytes();
  bytes[4] = 7;
  fixCrc(bytes);
  EXPECT_EQ(scanBytes(bytes, device_).codes(),
            (std::vector<std::string>{"BS003"}));
}

TEST_F(BitstreamRules, WrongDeviceTagIsBS004) {
  const DiagnosticSink sink =
      scanBytes(partialBytes(), fabric::makeXc2vp30());
  EXPECT_TRUE(sink.has("BS004")) << sink.toText();
}

TEST_F(BitstreamRules, WrongFrameBytesIsBS005) {
  std::vector<std::uint8_t> bytes = partialBytes();
  patchU32(bytes, 20, 999);
  fixCrc(bytes);
  EXPECT_EQ(scanBytes(bytes, device_).codes(),
            (std::vector<std::string>{"BS005"}));
}

TEST_F(BitstreamRules, CorruptPayloadIsBS006) {
  std::vector<std::uint8_t> bytes = partialBytes();
  bytes[bytes.size() / 2] ^= 0xFF;
  const DiagnosticSink sink = scanBytes(bytes, device_);
  EXPECT_TRUE(sink.has("BS006")) << sink.toText();
}

TEST_F(BitstreamRules, WrongFullFrameCountIsBS007) {
  std::vector<std::uint8_t> bytes = builder_.buildFull(1).bytes();
  patchU32(bytes, 16, device_.geometry().totalFrames() - 5);
  fixCrc(bytes);
  EXPECT_EQ(scanBytes(bytes, device_).codes(),
            (std::vector<std::string>{"BS007"}));
}

TEST_F(BitstreamRules, OutOfDeviceFrameAddressIsBS008) {
  std::vector<std::uint8_t> bytes = partialBytes();
  const auto& enc = device_.geometry().encoding();
  // Last frame-write's address word keeps the sequence monotone.
  const std::size_t lastAddr =
      bytes.size() - 4 - enc.frameBytes - enc.frameAddressBytes;
  patchU32(bytes, lastAddr, device_.geometry().totalFrames() + 40);
  fixCrc(bytes);
  EXPECT_EQ(scanBytes(bytes, device_).codes(),
            (std::vector<std::string>{"BS008"}));
}

TEST_F(BitstreamRules, NonMonotoneAddressesAreBS009Warning) {
  std::vector<std::uint8_t> bytes = partialBytes();
  const auto& enc = device_.geometry().encoding();
  const std::size_t first = enc.partialOverheadBytes - 4;
  const std::size_t second = first + enc.frameAddressBytes + enc.frameBytes;
  const std::uint32_t firstAddr = bytes[first] |
                                  std::uint32_t{bytes[first + 1]} << 8 |
                                  std::uint32_t{bytes[first + 2]} << 16 |
                                  std::uint32_t{bytes[first + 3]} << 24;
  const std::uint32_t secondAddr = bytes[second] |
                                   std::uint32_t{bytes[second + 1]} << 8 |
                                   std::uint32_t{bytes[second + 2]} << 16 |
                                   std::uint32_t{bytes[second + 3]} << 24;
  patchU32(bytes, first, secondAddr);
  patchU32(bytes, second, firstAddr);
  fixCrc(bytes);
  const DiagnosticSink sink = scanBytes(bytes, device_);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"BS009"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST_F(BitstreamRules, TrailingBytesAreBS010Warning) {
  std::vector<std::uint8_t> bytes = partialBytes();
  bytes.insert(bytes.end() - 4, {0, 0, 0, 0});
  fixCrc(bytes);
  const DiagnosticSink sink = scanBytes(bytes, device_);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"BS010"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST_F(BitstreamRules, StreamOutsideEveryPrrIsBS011) {
  // A persona for the dual layout's right-edge PRR cannot load into the
  // single-PRR floorplan (whose one PRR sits in the device centre).
  const std::vector<std::uint8_t> bytes = partialBytes(1);
  DiagnosticSink sink;
  const analyze::StreamScan scan = analyze::scanStream(bytes, device_, sink);
  ASSERT_TRUE(sink.empty()) << sink.toText();
  analyze::checkStreamFitsFloorplan(scan, fabric::makeSinglePrrLayout(), sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"BS011"}));

  DiagnosticSink fits;
  analyze::checkStreamFitsFloorplan(scan, plan_, fits);
  EXPECT_TRUE(fits.empty()) << fits.toText();
}

TEST_F(BitstreamRules, ParserDelegatesWithCodeInMessage) {
  std::vector<std::uint8_t> bytes = partialBytes();
  bytes[bytes.size() / 2] ^= 0xFF;
  try {
    (void)bitstream::parse(bytes, device_);
    FAIL() << "corrupt stream parsed";
  } catch (const util::BitstreamError& e) {
    EXPECT_NE(std::string{e.what()}.find("BS006"), std::string::npos)
        << e.what();
  }
  patchU32(bytes, 0, 0x12345678);
  try {
    (void)bitstream::peekHeader(bytes);
    FAIL() << "bad magic accepted";
  } catch (const util::BitstreamError& e) {
    EXPECT_NE(std::string{e.what()}.find("BS002"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Model and scenario rules
// ---------------------------------------------------------------------------

TEST(ModelRules, GoodParamsLintClean) {
  DiagnosticSink sink;
  analyze::checkParams(goodParams(), sink);
  EXPECT_TRUE(sink.empty()) << sink.toText();
}

TEST(ModelRules, DomainViolationsMapToCodes) {
  const std::vector<std::pair<std::function<void(model::Params&)>, std::string>>
      cases{
          {[](model::Params& p) { p.nCalls = 0; }, "MD001"},
          {[](model::Params& p) { p.xTask = 0.0; }, "MD002"},
          {[](model::Params& p) { p.xPrtr = 1.5; }, "MD003"},
          {[](model::Params& p) { p.xControl = -0.1; }, "MD004"},
          {[](model::Params& p) { p.xDecision = -0.1; }, "MD005"},
          {[](model::Params& p) { p.hitRatio = 1.1; }, "MD006"},
      };
  for (const auto& [mutate, code] : cases) {
    model::Params p = goodParams();
    mutate(p);
    DiagnosticSink sink;
    analyze::checkParams(p, sink);
    EXPECT_EQ(sink.codes(), (std::vector<std::string>{code})) << sink.toText();
    EXPECT_THROW(p.validate(), util::DomainError) << code;
  }
}

TEST(ModelRules, UnprofitableParamsAreMD007Warning) {
  model::Params p = goodParams();
  p.xDecision = 2.0;  // decision latency dwarfs the reconfiguration itself
  DiagnosticSink sink;
  analyze::checkParams(p, sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"MD007"}))
      << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
  // MD007 is a warning: validate() must accept these parameters, and the
  // model functions (which re-validate internally) must not recurse back
  // into the checker.
  EXPECT_NO_THROW(p.validate());
  EXPECT_LE(model::asymptoticSpeedup(p), 1.0);
}

TEST(ModelRules, UnreachableTargetIsMD008Warning) {
  model::Params p = goodParams();
  p.xTask = 4.0;  // bound (1 + 4)/4 = 1.25
  DiagnosticSink sink;
  analyze::checkParams(p, sink);
  analyze::checkSpeedupTarget(p, 3.0, sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"MD008"}))
      << sink.toText();

  DiagnosticSink reachable;
  analyze::checkParams(p, reachable);
  analyze::checkSpeedupTarget(p, 1.2, reachable);
  EXPECT_FALSE(reachable.has("MD008")) << reachable.toText();
}

TEST(ScenarioRules, DefaultOptionsLintClean) {
  DiagnosticSink sink;
  analyze::checkScenarioOptions(runtime::ScenarioOptions{}, sink);
  EXPECT_TRUE(sink.empty()) << sink.toText();
}

TEST(ScenarioRules, ForceMissWithNonDefaultCacheIsMD009) {
  runtime::ScenarioOptions options;
  options.forceMiss = true;
  options.cachePolicy = runtime::CachePolicy::kBelady;
  DiagnosticSink sink;
  analyze::checkScenarioOptions(options, sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"MD009"}))
      << sink.toText();
}

TEST(ScenarioRules, PrefetcherMismatchIsMD010) {
  runtime::ScenarioOptions ignored;
  ignored.forceMiss = false;
  ignored.prefetcherKind = runtime::PrefetcherKind::kOracle;
  ignored.prepare = runtime::PrepareSource::kQueue;
  DiagnosticSink sink;
  analyze::checkScenarioOptions(ignored, sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"MD010"}))
      << sink.toText();

  runtime::ScenarioOptions absent;
  absent.forceMiss = false;
  absent.prefetcherKind = runtime::PrefetcherKind::kNone;
  absent.prepare = runtime::PrepareSource::kPrefetcher;
  DiagnosticSink sink2;
  analyze::checkScenarioOptions(absent, sink2);
  EXPECT_EQ(sink2.codes(), (std::vector<std::string>{"MD010"}))
      << sink2.toText();
}

TEST(ScenarioRules, UnknownNamesAreMD011AndMD012) {
  // Typed options cannot hold an unknown name; the string boundary
  // (spec files, CLI flags) lints through checkScenarioNames instead.
  DiagnosticSink sink;
  analyze::checkScenarioNames("clock", "psychic", sink);
  EXPECT_TRUE(sink.has("MD011")) << sink.toText();
  EXPECT_TRUE(sink.has("MD012")) << sink.toText();
  EXPECT_TRUE(sink.hasErrors());

  DiagnosticSink clean;
  analyze::checkScenarioNames("lru", "none", clean);
  EXPECT_TRUE(clean.empty()) << clean.toText();
}

TEST(ScenarioRules, KnownNameListsMatchTheRuntimeFactories) {
  // The linter's accept-lists and the factories must never drift apart:
  // every advertised name parses back to an enum value that constructs,
  // and the linter accepts exactly the names fromString does.
  for (const char* policy : analyze::knownCachePolicies()) {
    const auto parsed = runtime::cachePolicyFromString(policy);
    ASSERT_TRUE(parsed.has_value()) << policy;
    EXPECT_STREQ(runtime::toString(*parsed), policy);
    EXPECT_NE(runtime::makeCache(*parsed, 2, {1, 2, 1}), nullptr) << policy;
    DiagnosticSink sink;
    analyze::checkScenarioNames(policy, "none", sink);
    EXPECT_FALSE(sink.has("MD011")) << policy;
  }
  for (const char* kind : analyze::knownPrefetcherKinds()) {
    const auto parsed = runtime::prefetcherKindFromString(kind);
    ASSERT_TRUE(parsed.has_value()) << kind;
    EXPECT_STREQ(runtime::toString(*parsed), kind);
    EXPECT_NE(runtime::makePrefetcher(*parsed, util::Time::zero(), {1, 2}),
              nullptr)
        << kind;
    DiagnosticSink sink;
    analyze::checkScenarioNames("lru", kind, sink);
    EXPECT_FALSE(sink.has("MD012")) << kind;
  }
  EXPECT_FALSE(runtime::cachePolicyFromString("clock").has_value());
  EXPECT_FALSE(runtime::prefetcherKindFromString("psychic").has_value());
}

// ---------------------------------------------------------------------------
// Fault rules
// ---------------------------------------------------------------------------

analyze::FaultSpec parseFault(const std::string& text) {
  std::istringstream in{text};
  return analyze::parseFaultSpec(in);
}

TEST(FaultRules, ChaosSpecRoundtripsAndLintsClean) {
  const analyze::FaultSpec spec = parseFault(
      "# chaos sweep point\n"
      "seed 42\n"
      "arrival poisson\n"
      "word-flip-rate 1e-4\n"
      "abort-rate 0.01\n"
      "recovery true\n"
      "max-retries 2\n"
      "verify on-fault\n"
      "ladder true\n");
  EXPECT_EQ(spec.seed, 42u);
  EXPECT_DOUBLE_EQ(spec.wordFlipRate, 1e-4);
  const DiagnosticSink sink = analyze::lintFaultSpec(spec);
  EXPECT_TRUE(sink.empty()) << sink.toText();

  const auto [plan, recovery] = analyze::faultSpecToOptions(spec);
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_TRUE(plan.active());
  EXPECT_TRUE(recovery.enabled);
  EXPECT_EQ(recovery.maxRetries, 2u);
  EXPECT_EQ(recovery.verify, config::VerifyMode::kOnFault);
}

TEST(FaultRules, SyntaxErrorsCarryTheLineNumber) {
  EXPECT_THROW((void)parseFault("seed x\n"), util::DomainError);
  try {
    (void)parseFault("seed 1\n\nwobble 3\n");
    FAIL() << "unknown key parsed";
  } catch (const util::DomainError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(FaultRules, UnknownNamesAreFT004AndFT005) {
  const DiagnosticSink sink =
      analyze::lintFaultSpec(parseFault("arrival sometimes\nverify maybe\n"));
  EXPECT_TRUE(sink.has("FT004")) << sink.toText();
  EXPECT_TRUE(sink.has("FT005")) << sink.toText();
  EXPECT_TRUE(sink.hasErrors());
}

TEST(FaultRules, NoOpPlanIsFT007WarningOnlyAtTheSpecBoundary) {
  // A rate-0 plan with recovery enabled is the healthy-baseline chaos
  // configuration: the spec front end warns (a spec file that injects
  // nothing is probably a mistake) but the typed check stays silent so
  // runScenario's strict hook accepts it.
  const DiagnosticSink sink = analyze::lintFaultSpec(parseFault("recovery true\n"));
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FT007"})) << sink.toText();
  EXPECT_FALSE(sink.hasErrors());

  DiagnosticSink typed;
  analyze::checkFaultOptions(fault::Plan{}, config::RecoveryPolicy{.enabled = true},
                             typed);
  EXPECT_TRUE(typed.empty()) << typed.toText();
}

TEST(FaultRules, FaultsWithoutRecoveryAreFT008Warning) {
  fault::Plan plan;
  plan.icapAbortRate = 0.01;
  DiagnosticSink sink;
  analyze::checkFaultOptions(plan, config::RecoveryPolicy{}, sink);
  EXPECT_EQ(sink.codes(), (std::vector<std::string>{"FT008"})) << sink.toText();
  EXPECT_FALSE(sink.hasErrors());
}

TEST(FaultRules, ScenarioStrictLintRejectsBadFaultOptions) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  runtime::ScenarioOptions options;
  options.sides = runtime::ScenarioSides::kPrtrOnly;
  options.faults.icapAbortRate = 1.5;  // FT001 (error)
  options.recovery.enabled = true;
  EXPECT_THROW((void)runtime::runScenario(registry, workload, options),
               util::DomainError);
}

// ---------------------------------------------------------------------------
// Spec front end and lintAll
// ---------------------------------------------------------------------------

TEST(SpecParsing, FloorplanSpecRoundtripsAndLints) {
  std::istringstream in{
      "# comment\n"
      "device xc2vp50\n"
      "prr A 0 8\n"
      "prr B 6 8\n"
      "busmacro A l2r 8 8\n"
      "busmacro A r2l 8 8\n"};
  const analyze::FloorplanSpec spec = analyze::parseFloorplanSpec(in);
  EXPECT_EQ(spec.deviceName, "xc2vp50");
  ASSERT_EQ(spec.prrs.size(), 2u);
  EXPECT_EQ(spec.busMacros.size(), 2u);
  const DiagnosticSink sink = analyze::lintFloorplanSpec(spec);
  EXPECT_TRUE(sink.has("FP004")) << sink.toText();  // A and B overlap
  EXPECT_TRUE(sink.has("FP007")) << sink.toText();  // B has no macros
}

TEST(SpecParsing, SyntaxErrorsCarryTheLineNumber) {
  std::istringstream in{"device xc2vp50\n\nprr A zero 8\n"};
  try {
    (void)analyze::parseFloorplanSpec(in);
    FAIL() << "bad spec parsed";
  } catch (const util::DomainError& e) {
    EXPECT_NE(std::string{e.what()}.find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST(SpecParsing, ScenarioSpecRoundtripsAndLints) {
  std::istringstream in{
      "ncalls 50\nxtask 4\nxprtr 0.2\nhit 0\n"
      "target 3\nforce-miss true\ncache belady\n"
      "prefetcher oracle\nprepare queue\n"};
  const analyze::ScenarioSpec spec = analyze::parseScenarioSpec(in);
  EXPECT_EQ(spec.params.nCalls, 50u);
  EXPECT_DOUBLE_EQ(spec.params.xTask, 4.0);
  EXPECT_DOUBLE_EQ(spec.speedupTarget, 3.0);
  const DiagnosticSink sink = analyze::lintScenarioSpec(spec);
  EXPECT_EQ(sink.codes(),
            (std::vector<std::string>{"MD008", "MD009", "MD010"}))
      << sink.toText();
}

TEST(LintAll, AggregatesEveryTargetKind) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const fabric::Device device = fabric::makeXc2vp50();
  std::vector<std::uint8_t> bytes =
      bitstream::Builder{device}.buildModulePartial(plan.prr(0), 3).bytes();
  bytes[bytes.size() / 2] ^= 0xFF;
  model::Params params = goodParams();
  params.xDecision = 2.0;
  runtime::ScenarioOptions options;
  options.forceMiss = true;
  options.cachePolicy = runtime::CachePolicy::kBelady;

  analyze::LintTargets targets;
  targets.floorplan = &plan;
  targets.streamBytes = bytes;
  targets.device = &device;
  targets.params = &params;
  targets.scenario = &options;
  const DiagnosticSink sink = analyze::lintAll(targets);
  EXPECT_TRUE(sink.has("BS006")) << sink.toText();
  EXPECT_TRUE(sink.has("MD007")) << sink.toText();
  EXPECT_TRUE(sink.has("MD009")) << sink.toText();
}

TEST(LintAll, StreamWithoutDeviceThrows) {
  const std::vector<std::uint8_t> bytes(64, 0);
  analyze::LintTargets targets;
  targets.streamBytes = bytes;
  EXPECT_THROW((void)analyze::lintAll(targets), util::DomainError);
}

TEST(LintAll, UnresolvedNamesLintThroughTargets) {
  // String-boundary callers (CLI, spec files) lint the raw names through
  // LintTargets before converting to enums — the same MD011/MD012 the
  // spec front end reports.
  const std::string cacheName = "clock";
  analyze::LintTargets targets;
  targets.cachePolicyName = &cacheName;
  const DiagnosticSink sink = analyze::lintAll(targets);
  ASSERT_TRUE(sink.hasErrors());
  EXPECT_EQ(sink.firstError().code, "MD011");
}

TEST(LintAll, RunScenarioStrictHookUsesTheSameRules) {
  // runScenario() must reject exactly what the linter flags as an error.
  // Typed options cannot express MD011 any more, so the strict hook's
  // remaining reachable findings are warnings — it must NOT throw on them.
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{1'000'000});
  runtime::ScenarioOptions options;
  options.sides = runtime::ScenarioSides::kPrtrOnly;
  options.forceMiss = true;
  options.cachePolicy = runtime::CachePolicy::kBelady;  // MD009 (warning)
  EXPECT_NO_THROW((void)runtime::runScenario(registry, workload, options));
}

// ---------------------------------------------------------------------------
// Every documented code is reachable
// ---------------------------------------------------------------------------

TEST(RuleCoverage, EveryDocumentedCodeIsEmittableByAChecker) {
  const fabric::Device device = fabric::makeXc2vp50();
  const fabric::Floorplan dual = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{device};
  std::set<std::string> reached;
  const auto collect = [&reached](const DiagnosticSink& sink) {
    for (const auto& code : sink.codes()) reached.insert(code);
  };

  {  // Floorplan: every FP code from one deliberately broken layout.
    std::vector<fabric::Region> regions{
        fabric::Region{"S", fabric::RegionRole::kStatic, 0, 60},  // FP001
        prr("S", 60, 10),       // FP010 dup name, FP003 PPC, FP004 overlap
        prr("LATE", 80, 20),    // FP002 out of the 83-column device
        prr("WIDE", 67, 16),    // eats the remaining fabric -> FP009
        prr("BARE", 0, 2),      // FP007 no macros (overlaps S too)
    };
    std::vector<fabric::BusMacro> macros{
        macro("GHOST", fabric::BusMacro::Direction::kLeftToRight, 0),  // FP005
        macro("WIDE", fabric::BusMacro::Direction::kLeftToRight, 70),  // FP006
        macro("S", fabric::BusMacro::Direction::kLeftToRight, 60),     // FP008
    };
    collect(lintFloorplanParts(device, regions, macros));
  }
  {  // Bitstream: header defects.
    collect(scanBytes(std::vector<std::uint8_t>(8, 0), device));  // BS001
    std::vector<std::uint8_t> bad = builder.buildModulePartial(
        dual.prr(0), 1).bytes();
    patchU32(bad, 0, 0);
    collect(scanBytes(bad, device));  // BS002
    bad = builder.buildModulePartial(dual.prr(0), 1).bytes();
    bad[4] = 9;
    collect(scanBytes(bad, device));  // BS003
    collect(scanBytes(builder.buildModulePartial(dual.prr(0), 1).bytes(),
                      fabric::makeXc2vp30()));  // BS004
  }
  {  // Bitstream: body defects.
    std::vector<std::uint8_t> bytes =
        builder.buildModulePartial(dual.prr(0), 1).bytes();
    patchU32(bytes, 20, 123);
    collect(scanBytes(bytes, device));  // BS005 (+BS006: CRC left stale)
    bytes = builder.buildFull(1).bytes();
    patchU32(bytes, 16, 3);
    fixCrc(bytes);
    collect(scanBytes(bytes, device));  // BS007
    bytes = builder.buildModulePartial(dual.prr(0), 1).bytes();
    const auto& enc = device.geometry().encoding();
    const std::size_t first = enc.partialOverheadBytes - 4;
    patchU32(bytes, first, device.geometry().totalFrames() + 1);  // BS008
    patchU32(bytes, first + enc.frameAddressBytes + enc.frameBytes,
             0);  // BS009: second address below the (huge) first
    bytes.insert(bytes.end() - 4, {1, 2, 3, 4});  // BS010
    fixCrc(bytes);
    collect(scanBytes(bytes, device));
    DiagnosticSink sink;
    const analyze::StreamScan scan = analyze::scanStream(
        builder.buildModulePartial(dual.prr(1), 1).bytes(), device, sink);
    analyze::checkStreamFitsFloorplan(scan, fabric::makeSinglePrrLayout(),
                                      sink);  // BS011
    collect(sink);
  }
  {  // Model domain + feasibility.
    model::Params p;
    p.nCalls = 0;          // MD001
    p.xTask = -1.0;        // MD002
    p.xPrtr = 2.0;         // MD003
    p.xControl = -1.0;     // MD004
    p.xDecision = -1.0;    // MD005
    p.hitRatio = 2.0;      // MD006
    DiagnosticSink sink;
    analyze::checkParams(p, sink);
    collect(sink);
    model::Params warned = goodParams();
    warned.xDecision = 2.0;  // MD007
    warned.xTask = 4.0;      // keeps MD008 reachable below
    DiagnosticSink sink2;
    analyze::checkParams(warned, sink2);
    analyze::checkSpeedupTarget(warned, 100.0, sink2);  // MD008
    collect(sink2);
  }
  {  // Scenario options (typed) + the string-boundary name checks.
    runtime::ScenarioOptions options;
    options.forceMiss = true;
    options.cachePolicy = runtime::CachePolicy::kBelady;        // MD009
    options.prefetcherKind = runtime::PrefetcherKind::kOracle;  // MD010
    DiagnosticSink sink;
    analyze::checkScenarioOptions(options, sink);
    collect(sink);
    DiagnosticSink sink2;
    analyze::checkScenarioNames("clock", "psychic", sink2);  // MD011, MD012
    collect(sink2);
  }
  {  // Fault plan + recovery policy.
    fault::Plan plan;
    plan.wordFlipRate = 2.0;                  // FT001 (and > 1e-2 -> FT010)
    plan.linkStallRate = 0.5;
    plan.stallDuration = util::Time::zero();  // FT002
    plan.arrival = fault::Arrival::kFixedPeriod;
    plan.fixedPeriod = 0;                     // FT003
    DiagnosticSink sink;
    analyze::checkFaultOptions(plan, config::RecoveryPolicy{}, sink);  // FT008
    collect(sink);
    config::RecoveryPolicy dead;
    dead.enabled = true;
    dead.maxRetries = 0;
    dead.ladder = false;       // FT009
    dead.backoffFactor = 0.5;  // FT006
    DiagnosticSink sink2;
    analyze::checkFaultOptions(fault::Plan{}, dead, sink2);
    collect(sink2);
    std::istringstream bad{"arrival sometimes\nverify maybe\n"};
    collect(analyze::lintFaultSpec(
        analyze::parseFaultSpec(bad)));  // FT004, FT005, FT007
  }
  {  // Fleet: one options object violating most FL rules at once, a second
     // for the rules the first masks, and an unparseable-name spec pass.
    fleet::FleetOptions bad;
    bad.cells = 0;                                // FL001
    bad.requests = 0;                             // FL002
    bad.offeredLoad = 0.0;                        // FL003 (masks FL012)
    bad.arrival = fleet::ArrivalProcess::kTrace;  // FL006: trace is empty
    bad.retry.maxAttempts = 0;                    // FL007
    bad.retry.budgetFraction = 0.6;               // FL013
    bad.breaker.consecutiveFailures = 0;          // FL008
    bad.hedge.enabled = true;
    bad.hedge.quantile = 1.5;                     // FL009
    bad.users = 0;                                // FL010
    bad.admission.maxQueueDepth = 0;              // FL011
    bad.degradedFraction = 0.5;                   // FL014: plan inactive
    bad.rateLimit.enabled = true;                 // FL016: rate left at 0
    bad.tracing.enabled = true;
    bad.tracing.sampleRate = -0.5;                // TR001
    bad.tracing.slowQuantile = 1.5;               // TR002
    bad.slo.enabled = true;
    bad.slo.objective = 1.5;                      // SL001
    bad.slo.windowPs = 0;                         // SL002
    bad.slo.fastWindows = 0;                      // SL003
    bad.slo.fastBurn = 0.0;                       // SL004
    DiagnosticSink sink;
    analyze::checkFleetOptions(bad, sink);
    collect(sink);

    fleet::FleetOptions saturated;
    saturated.offeredLoad = 1.5;  // FL012
    saturated.requests = 1'000'000;
    saturated.degradedFraction = 0.5;
    saturated.degradedFaults.icapAbortRate = 0.3;
    saturated.breaker.enabled = false;  // FL015
    saturated.tracing.enabled = true;
    saturated.tracing.sampleRate = 0.6;      // TR004 at 1M requests
    saturated.tracing.maxSampledPerCell = 0;  // TR003
    saturated.slo.enabled = true;
    saturated.slo.objective = 0.9999999;  // SL005: budget < 10 requests
    DiagnosticSink sink2;
    analyze::checkFleetOptions(saturated, sink2);
    collect(sink2);

    fleet::BladeProfile degenerate;
    degenerate.tasks.emplace_back();  // all-zero costs
    DiagnosticSink sink3;
    analyze::checkBladeProfile(degenerate, sink3);  // FL017
    collect(sink3);

    analyze::FleetSpec spec;
    spec.routing = "psychic";    // FL004
    spec.arrival = "sometimes";  // FL005
    collect(analyze::lintFleetSpec(spec));
  }
  {  // Request lanes: one synthetic process violating every RQ rule.
    const auto ps = [](long long v) { return util::Time::picoseconds(v); };
    verify::TraceProcess process;
    process.name = "fleet/cell0";
    process.spans = {
        {"rq:a", "request ok", '#', ps(0), ps(100)},
        {"rq:a", "attempt#1", '#', ps(10), ps(120)},  // RQ001 escapes root
        {"rq:a", "execute#1", '#', ps(5), ps(60)},    // RQ003 escapes attempt
        {"rq:a", "queue#2", '#', ps(20), ps(30)},     // RQ004 no attempt#2
        {"rq:b", "attempt#1", '#', ps(0), ps(10)},    // RQ002 no root
        {"rq:c", "request shed:queue", '#', ps(0), ps(5)},
        {"rq:c", "attempt#1", '#', ps(0), ps(5)},     // RQ006 shed dispatched
    };
    process.instants = {{"rq:a", "hedge:win", ps(50)},
                        {"rq:a", "hedge:win", ps(60)}};  // RQ005 two winners
    DiagnosticSink sink;
    verify::checkRequestLanes(process, sink);
    collect(sink);
  }
  {  // Races: feed the detector an event stream with every unordered pair.
    verify::RaceDetector detector;
    detector.access(1, "exec.cache.entry", true);
    detector.access(2, "exec.cache.entry", false);
    detector.access(3, "exec.cache.entry", true);
    std::thread other{[&detector] {
      detector.access(1, "exec.cache.entry", true);   // RC001 write/write
      detector.access(2, "exec.cache.entry", true);   // RC002 read -> write
      detector.access(3, "exec.cache.entry", false);  // RC003 write -> read
      detector.acquire(99);  // RC004: sync object never released
    }};
    other.join();
    DiagnosticSink sink;
    detector.report(sink);
    collect(sink);
  }
  {  // Timelines: one span list violating every physical invariant.
    const auto us = [](long long v) { return util::Time::microseconds(v); };
    const std::vector<sim::NamedSpan> spans{
        {"CPU", "late", '#', us(10), us(12)},
        {"CPU", "early", '#', us(0), us(3)},        // TL002 out of order
        {"CPU", "overlap", '#', us(1), us(2)},      // TL003 serial overlap
        {"CPU", "backwards", '#', us(20), us(15)},  // TL001 ends first
        {"PRR0", "config(sobel)", '#', us(0), us(10)},
        {"PRR0", "config(median)", '#', us(5), us(15)},  // TL004 residency
        {"config", "sobel", '#', us(0), us(10)},
        {"config", "median", '#', us(5), us(15)},  // TL005 ICAP exclusion
        {"HT-in", "in(a)", '#', us(0), us(10)},
        {"HT-in", "in(b)", '#', us(5), us(15)},  // TL006 link occupancy
        {"recovery", "retry", '#', us(100), us(110)},  // TL007 no config
    };
    DiagnosticSink sink;
    verify::checkSpans("synthetic", spans, sink);
    collect(sink);
  }
  {  // Determinism: trace diff plus a deliberately schedule-dependent
     // workload under the explorer (DT001), asked for more schedules than
     // one width-1 run can provide (DT003).
    const auto us = [](long long v) { return util::Time::microseconds(v); };
    const std::vector<verify::TraceProcess> left{
        {"prtr", {{"CPU", "task", '#', us(0), us(1)}}, {}, {}}};
    const std::vector<verify::TraceProcess> right{
        {"prtr", {{"CPU", "task", '#', us(0), us(2)}}, {}, {}}};
    DiagnosticSink sink;
    verify::compareTraces(left, right, sink);  // DT002
    verify::ExploreOptions explore;
    explore.widths = {1};
    explore.seedsPerWidth = 1;
    explore.minDistinctSchedules = 100;  // DT003
    int run = 0;
    explore.sweep = [&run] { return std::to_string(run++); };  // DT001
    (void)verify::exploreSchedules(explore, sink);
    collect(sink);
  }

  for (const analyze::RuleInfo& rule : analyze::ruleCatalog()) {
    EXPECT_TRUE(reached.count(rule.code))
        << "documented code " << rule.code << " was never emitted";
  }
}

}  // namespace
}  // namespace prtr
