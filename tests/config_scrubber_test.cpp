// Tests for configuration readback, SEU injection, and scrubbing.
#include <gtest/gtest.h>

#include "bitstream/builder.hpp"
#include "config/scrubber.hpp"
#include "fabric/floorplan.hpp"
#include "sim/link.hpp"
#include "util/error.hpp"

namespace prtr::config {
namespace {

class ScrubFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    memory_.applyFull(*bitstream::parse(builder_.buildFull(1), plan_.device()));
  }

  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  bitstream::Builder builder_{plan_.device()};
  sim::Simulator sim_;
  ConfigMemory memory_{plan_.device()};
  sim::SimplexLink link_{sim_, "HT-in",
                         util::DataRate::megabytesPerSecond(1400)};
  IcapController icap_{sim_, memory_, link_};
};

TEST_F(ScrubFixture, RetainedContentMatchesLoadedStream) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  EXPECT_TRUE(verifyRegion(memory_, part).empty());
}

TEST_F(ScrubFixture, InjectedUpsetIsDetectedPrecisely) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));

  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());
  memory_.injectUpset(range.first + 17, 100, 0x10);
  const auto corrupted = verifyRegion(memory_, part);
  ASSERT_EQ(corrupted.size(), 1u);
  EXPECT_EQ(corrupted[0], range.first + 17);
  EXPECT_EQ(memory_.upsetsInjected(), 1u);
}

TEST_F(ScrubFixture, DoubleUpsetSameBitSelfCancels) {
  // Two flips of the same bit restore the original content: the scrubber
  // correctly sees nothing (XOR semantics).
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());
  memory_.injectUpset(range.first, 5, 0x08);
  memory_.injectUpset(range.first, 5, 0x08);
  EXPECT_TRUE(verifyRegion(memory_, part).empty());
}

TEST_F(ScrubFixture, ScrubberRepairsCorruption) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());

  Scrubber scrubber{sim_, memory_, icap_, plan_.device(), part,
                    util::Time::milliseconds(100)};
  // Inject one upset shortly after the first scrub pass completes.
  auto inject = [&]() -> sim::Process {
    co_await sim_.delay(util::Time::milliseconds(150));
    memory_.injectUpset(range.first + 3, 9, 0x01);
  };
  sim_.spawn(inject());
  sim_.spawn(scrubber.run(3));
  sim_.run();

  const ScrubStats& stats = scrubber.stats();
  EXPECT_EQ(stats.scrubPasses, 3u);
  EXPECT_EQ(stats.upsetsDetected, 1u);
  EXPECT_EQ(stats.repairs, 1u);
  EXPECT_TRUE(verifyRegion(memory_, part).empty());  // repaired
  EXPECT_GT(stats.readbackTime.toMilliseconds(), 3 * 19.0);  // 3 readbacks
  EXPECT_GT(stats.repairTime.toMilliseconds(), 19.0);        // 1 reload
}

TEST_F(ScrubFixture, CleanRegionNeverRepairs) {
  const auto part = builder_.buildModulePartial(plan_.prr(1), 9);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  Scrubber scrubber{sim_, memory_, icap_, plan_.device(), part,
                    util::Time::milliseconds(50)};
  sim_.spawn(scrubber.run(5));
  sim_.run();
  EXPECT_EQ(scrubber.stats().repairs, 0u);
  EXPECT_EQ(scrubber.stats().upsetsDetected, 0u);
  EXPECT_EQ(scrubber.stats().framesChecked, 5u * 380u);
}

TEST_F(ScrubFixture, InjectorPoissonRateIsRoughlyRight) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());

  UpsetInjector injector{sim_, memory_, range, util::Time::milliseconds(10),
                         42};
  sim_.spawn(injector.run(util::Time::seconds(2.0)));
  sim_.run();
  // Expect ~200 upsets over 2 s at a 10 ms mean.
  EXPECT_GT(injector.injected(), 150u);
  EXPECT_LT(injector.injected(), 260u);
  EXPECT_EQ(memory_.upsetsInjected(), injector.injected());
}

TEST_F(ScrubFixture, ResetClearsImageAndCounters) {
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());
  memory_.injectUpset(range.first, 0, 0xFF);
  memory_.reset();
  EXPECT_EQ(memory_.upsetsInjected(), 0u);
  const auto content = memory_.frameContent(range.first);
  for (const auto byte : content) EXPECT_EQ(byte, 0);
}

TEST_F(ScrubFixture, ApproxExposureIsHalfPeriodPerDetectedUpset) {
  // Without an attached injector the scrubber can only report the
  // blind-window model: half a scrub period per detected upset.
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());

  Scrubber scrubber{sim_, memory_, icap_, plan_.device(), part,
                    util::Time::milliseconds(100)};
  auto inject = [&]() -> sim::Process {
    co_await sim_.delay(util::Time::milliseconds(150));
    memory_.injectUpset(range.first + 3, 9, 0x01);
  };
  sim_.spawn(inject());
  sim_.spawn(scrubber.run(3));
  sim_.run();

  const ScrubStats& stats = scrubber.stats();
  EXPECT_EQ(stats.upsetsDetected, 1u);
  EXPECT_EQ(stats.approxExposure, util::Time::milliseconds(50));
  EXPECT_EQ(stats.observedUpsets, 0u);  // nobody recorded injection times
  EXPECT_EQ(stats.observedExposure, util::Time::zero());
}

TEST_F(ScrubFixture, ObservedExposureReportsActualLatencyAlongsideModel) {
  // With the upset source attached, repairs report the true injection->
  // repair latency next to the half-period approximation, so the blind-
  // window model can be judged instead of trusted.
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());

  UpsetInjector injector{sim_, memory_, range, util::Time::milliseconds(20),
                         42};
  Scrubber scrubber{sim_, memory_, icap_, plan_.device(), part,
                    util::Time::milliseconds(50)};
  scrubber.observeInjector(&injector);
  sim_.spawn(injector.run(util::Time::milliseconds(400)));
  sim_.spawn(scrubber.run(10));
  sim_.run();

  const ScrubStats& stats = scrubber.stats();
  ASSERT_GE(stats.upsetsDetected, 1u);
  EXPECT_GE(stats.observedUpsets, 1u);
  EXPECT_LE(stats.observedUpsets, stats.upsetsDetected);
  EXPECT_GT(stats.observedExposure, util::Time::zero());
  EXPECT_GT(stats.approxExposure, util::Time::zero());
  // Actual latency is bounded by the horizon; the sum over observed upsets
  // cannot exceed observedUpsets whole horizons.
  EXPECT_LT(stats.observedExposure,
            util::Time::milliseconds(500) *
                static_cast<double>(stats.observedUpsets));
}

TEST_F(ScrubFixture, ScrubberValidatesArguments) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  EXPECT_THROW((Scrubber{sim_, memory_, icap_, plan_.device(), part,
                         util::Time::zero()}),
               util::DomainError);
  const auto full = builder_.buildFull(1);
  EXPECT_THROW((Scrubber{sim_, memory_, icap_, plan_.device(), full,
                         util::Time::milliseconds(1)}),
               util::DomainError);
}

}  // namespace
}  // namespace prtr::config
