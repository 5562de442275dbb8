// Tests for the bounded schedule explorer and its seeded oracle: the pool's
// determinism contract is proven byte-identical across perturbed task
// interleavings at widths 1-4, the distinct-schedule lower bound meets the
// >= 100 gate, and a deliberately schedule-dependent workload is caught.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "exec/instrument.hpp"
#include "exec/pool.hpp"
#include "verify/oracle.hpp"
#include "verify/schedule.hpp"

namespace prtr {
namespace {

using analyze::DiagnosticSink;
using verify::ExploreOptions;
using verify::SeededOracle;

TEST(SeededOracle, ChoosesWithinRangeAndCountsDecisions) {
  SeededOracle oracle{1};
  std::set<std::size_t> seen;
  for (int i = 0; i < 200; ++i) {
    const std::size_t pick = oracle.choose(4, exec::kOracleSitePush);
    ASSERT_LT(pick, 4u);
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 4u);  // 200 draws cover all four targets
  EXPECT_EQ(oracle.decisions(), 200u);
  EXPECT_NE(oracle.signature(), 0u);
}

TEST(SeededOracle, SingleChoiceIsNotADecision) {
  SeededOracle oracle{1};
  EXPECT_EQ(oracle.choose(1, exec::kOracleSitePush), 0u);
  EXPECT_EQ(oracle.choose(0, exec::kOracleSitePush), 0u);
  EXPECT_EQ(oracle.decisions(), 0u);
  EXPECT_EQ(oracle.signature(), 0u);
}

TEST(SeededOracle, SignatureIsSeedSensitiveAndReproducible) {
  const auto signatureOf = [](std::uint64_t seed) {
    SeededOracle oracle{seed};
    for (int i = 0; i < 64; ++i) {
      (void)oracle.choose(3, exec::kOracleSiteStealOrder);
    }
    return oracle.signature();
  };
  EXPECT_EQ(signatureOf(7), signatureOf(7));
  EXPECT_NE(signatureOf(7), signatureOf(8));
}

TEST(ScheduleExplorer, SmallExplorationIsDeterministic) {
  ExploreOptions options;
  options.widths = {1, 2};
  options.seedsPerWidth = 2;
  options.points = 2;
  options.nCalls = 6;
  DiagnosticSink sink;
  const verify::ExploreResult result =
      verify::exploreSchedules(options, sink);
  EXPECT_TRUE(result.deterministic());
  EXPECT_EQ(result.mismatches, 0u);
  EXPECT_EQ(result.runs.size(), 4u);
  EXPECT_EQ(result.referenceDigest.size(), 8u);
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
  for (const verify::ScheduleRun& run : result.runs) {
    EXPECT_TRUE(run.identical)
        << "width " << run.width << " seed " << run.seed;
  }
}

// The acceptance gate: a Figure-9 sweep point is byte-identical at pool
// widths 1-4 under at least 100 provably distinct interleavings.
TEST(ScheduleExplorer, Fig9PointIsByteIdenticalUnderHundredInterleavings) {
  ExploreOptions options;
  // Width 4 appears twice: narrow pools collapse many seeds onto the same
  // decision stream, so the distinct-schedule mass must come from the
  // widest pool (the seed counter keeps advancing across entries).
  options.widths = {1, 2, 3, 4, 4};
  options.seedsPerWidth = 40;
  options.points = 4;  // enough sweep tasks for the oracle to perturb
  options.nCalls = 6;
  options.minDistinctSchedules = 100;
  DiagnosticSink sink;
  const verify::ExploreResult result =
      verify::exploreSchedules(options, sink);
  EXPECT_TRUE(result.deterministic()) << sink.toText();
  EXPECT_GE(result.distinctSchedules, 100u);
  EXPECT_TRUE(sink.codes().empty()) << sink.toText();
  EXPECT_EQ(result.runs.size(), 200u);
}

TEST(ScheduleExplorer, WidthOneRunsMakeNoDecisions) {
  ExploreOptions options;
  options.widths = {1};
  options.seedsPerWidth = 3;
  options.points = 1;
  options.nCalls = 4;
  DiagnosticSink sink;
  const verify::ExploreResult result =
      verify::exploreSchedules(options, sink);
  // A one-worker pool degenerates to the serial loop: nothing to perturb,
  // so every signature collapses to zero and one distinct schedule remains.
  for (const verify::ScheduleRun& run : result.runs) {
    EXPECT_EQ(run.decisions, 0u);
    EXPECT_EQ(run.signature, 0u);
  }
  EXPECT_EQ(result.distinctSchedules, 1u);
}

TEST(ScheduleExplorer, ScheduleDependentWorkloadIsDt001) {
  ExploreOptions options;
  options.widths = {2};
  options.seedsPerWidth = 2;
  int run = 0;
  options.sweep = [&run] { return std::to_string(run++); };
  DiagnosticSink sink;
  const verify::ExploreResult result =
      verify::exploreSchedules(options, sink);
  EXPECT_FALSE(result.deterministic());
  EXPECT_EQ(result.mismatches, 2u);
  EXPECT_TRUE(sink.has("DT001"));
  EXPECT_TRUE(sink.hasErrors());
}

TEST(ScheduleExplorer, TooFewDistinctSchedulesIsDt003) {
  ExploreOptions options;
  options.widths = {1};
  options.seedsPerWidth = 1;
  options.minDistinctSchedules = 100;  // impossible at width 1
  options.sweep = [] { return std::string{"same"}; };
  DiagnosticSink sink;
  const verify::ExploreResult result =
      verify::exploreSchedules(options, sink);
  EXPECT_TRUE(result.deterministic());
  ASSERT_EQ(sink.codes().size(), 1u);
  EXPECT_EQ(sink.codes().front(), "DT003");
  EXPECT_FALSE(sink.hasErrors());  // a weak proof is a warning, not an error
}

}  // namespace
}  // namespace prtr
