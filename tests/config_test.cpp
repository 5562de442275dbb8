// Tests for configuration ports, configuration memory, the vendor-API
// emulation (partial-rejection behaviour of paper section 4.1), and the
// ICAP controller timing calibration.
#include <gtest/gtest.h>

#include "bitstream/builder.hpp"
#include "bitstream/library.hpp"
#include "config/icap_controller.hpp"
#include "config/manager.hpp"
#include "config/memory.hpp"
#include "config/port.hpp"
#include "config/vendor_api.hpp"
#include "fabric/floorplan.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/error.hpp"

namespace prtr::config {
namespace {

using util::Time;

TEST(PortTest, SelectMapThroughputIs66MBps) {
  const Port port = makeSelectMap();
  EXPECT_NEAR(port.rawThroughput().toMegabytesPerSecond(), 66.0, 1e-9);
  EXPECT_FALSE(port.internal());
  EXPECT_TRUE(port.supportsPartial());
}

TEST(PortTest, JtagIsSerialAndSlow) {
  const Port port = makeJtag();
  EXPECT_EQ(port.widthBits(), 1u);
  EXPECT_NEAR(port.rawThroughput().toMegabytesPerSecond(), 33.0 / 8.0, 1e-9);
}

TEST(PortTest, IcapV2MatchesSelectMapRate) {
  const Port port = makeIcapV2();
  EXPECT_TRUE(port.internal());
  EXPECT_NEAR(port.rawThroughput().toMegabytesPerSecond(), 66.0, 1e-9);
}

TEST(PortTest, EstimatedTable2Times) {
  const Port selectMap = makeSelectMap();
  // Table 2 estimated column: 36.09 / 13.45 / 6.12 ms.
  EXPECT_NEAR(selectMap.transferTime(util::Bytes{2'381'764}).toMilliseconds(),
              36.09, 0.01);
  EXPECT_NEAR(selectMap.transferTime(util::Bytes{887'444}).toMilliseconds(),
              13.45, 0.01);
  EXPECT_NEAR(selectMap.transferTime(util::Bytes{404'388}).toMilliseconds(),
              6.12, 0.01);
}

class ConfigFixture : public ::testing::Test {
 protected:
  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  bitstream::Builder builder_{plan_.device()};
  sim::Simulator sim_;
  ConfigMemory memory_{plan_.device()};
};

TEST_F(ConfigFixture, MemoryStartsUnconfigured) {
  EXPECT_FALSE(memory_.done());
  EXPECT_EQ(memory_.frameOwner(0), 0u);
  EXPECT_EQ(memory_.framesWritten(), 0u);
}

TEST_F(ConfigFixture, PartialBeforeFullIsRejected) {
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  const auto parsed = bitstream::parse(part, plan_.device());
  EXPECT_THROW(memory_.applyPartial(*parsed), util::ConfigError);
}

TEST_F(ConfigFixture, FullThenPartialUpdatesOnlyRegionFrames) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));
  EXPECT_TRUE(memory_.done());

  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));

  const fabric::FrameRange range = plan_.prr(0).frames(plan_.device());
  EXPECT_EQ(memory_.frameOwner(range.first), 7u);
  EXPECT_EQ(memory_.frameOwner(range.end()), 1u);  // static frame untouched
}

TEST_F(ConfigFixture, ResetClearsState) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));
  memory_.reset();
  EXPECT_FALSE(memory_.done());
  EXPECT_EQ(memory_.frameOwner(0), 0u);
}

TEST_F(ConfigFixture, NodesShareOneParsePerLibraryStream) {
  bitstream::Library library{plan_, {{11, "a", 0.5}}};
  const bitstream::Bitstream& full = library.full();
  const bitstream::Bitstream& part = library.modulePartial(0, 11);
  // A second node: its own floorplan, device object and memory.
  const fabric::Floorplan otherPlan = fabric::makeDualPrrLayout();
  ConfigMemory other{otherPlan.device()};

  const bitstream::ParsedStream* fullView = &*memory_.parsedFor(full);
  EXPECT_EQ(&*other.parsedFor(full), fullView);
  EXPECT_EQ(&*other.parsedFor(part), &*memory_.parsedFor(part));
  // Resetting a node drops its configuration, not the stream's memo.
  memory_.applyFull(*memory_.parsedFor(full));
  memory_.reset();
  EXPECT_EQ(&*memory_.parsedFor(full), fullView);
}

TEST_F(ConfigFixture, CorruptStreamIsNeverCached) {
  const auto clean = builder_.buildModulePartial(plan_.prr(0), 7);
  std::vector<std::uint8_t> bytes = clean.bytes();
  bytes[bytes.size() / 2] ^= 0x5A;
  const bitstream::Bitstream bad{clean.header(), std::move(bytes)};
  const fabric::Floorplan otherPlan = fabric::makeDualPrrLayout();
  ConfigMemory other{otherPlan.device()};
  for (int call = 0; call < 2; ++call) {
    EXPECT_THROW((void)memory_.parsedFor(bad), util::BitstreamError);
    EXPECT_THROW((void)other.parsedFor(bad), util::BitstreamError);
  }
  EXPECT_EQ(memory_.parsedFor(clean)->writes.size(),
            plan_.prr(0).frames(plan_.device()).count);
}

TEST_F(ConfigFixture, VendorApiRejectsPartialBySize) {
  // The paper's key finding: the stock API checks the bitstream size and
  // errors out for partial streams.
  VendorApi api{sim_, memory_};
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);
  EXPECT_EQ(api.check(part), ApiStatus::kRejectedSize);

  ApiStatus status = ApiStatus::kOk;
  auto load = [&](VendorApi& a, const bitstream::Bitstream& s,
                  ApiStatus& st) -> sim::Process { co_await a.load(s, st); };
  sim_.spawn(load(api, part, status));
  sim_.run();
  EXPECT_EQ(status, ApiStatus::kRejectedSize);
  EXPECT_FALSE(memory_.done());
  // Rejection still costs the fixed driver overhead.
  EXPECT_EQ(sim_.now(), api.timing().fixedOverhead);
}

TEST_F(ConfigFixture, VendorApiAcceptsFullAndMatchesCalibration) {
  VendorApi api{sim_, memory_};
  const auto full = builder_.buildFull(1);
  ApiStatus status = ApiStatus::kRejectedDone;
  auto load = [&](VendorApi& a, const bitstream::Bitstream& s,
                  ApiStatus& st) -> sim::Process { co_await a.load(s, st); };
  sim_.spawn(load(api, full, status));
  sim_.run();
  EXPECT_EQ(status, ApiStatus::kOk);
  EXPECT_TRUE(memory_.done());
  // Table 2 measured full configuration: 1678.04 ms.
  EXPECT_NEAR(sim_.now().toMilliseconds(), 1678.04, 1678.04 * 0.001);
  EXPECT_EQ(api.loadsPerformed(), 1u);
}

TEST_F(ConfigFixture, ModifiedLoaderAcceptsPartials) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));
  VendorApi api{sim_, memory_, ApiTiming{}, /*modifiedLoader=*/true};
  const auto part = builder_.buildModulePartial(plan_.prr(1), 9);
  EXPECT_EQ(api.check(part), ApiStatus::kOk);
  ApiStatus status = ApiStatus::kRejectedSize;
  auto load = [&](VendorApi& a, const bitstream::Bitstream& s,
                  ApiStatus& st) -> sim::Process { co_await a.load(s, st); };
  sim_.spawn(load(api, part, status));
  sim_.run();
  EXPECT_EQ(status, ApiStatus::kOk);
  const auto range = plan_.prr(1).frames(plan_.device());
  EXPECT_EQ(memory_.frameOwner(range.first), 9u);
}

TEST_F(ConfigFixture, IcapEffectiveThroughputMatchesCalibration) {
  sim::SimplexLink link{sim_, "HT-in",
                        util::DataRate::megabytesPerSecond(1400)};
  IcapController icap{sim_, memory_, link};
  // Calibration: (4+9) cycles per 4-byte word at 66 MHz -> 20.31 MB/s.
  EXPECT_NEAR(icap.effectiveThroughput().toMegabytesPerSecond(), 20.31, 0.01);
  // Table 2 measured partials: ~43.48 ms (single) and ~19.77 ms (dual).
  EXPECT_NEAR(icap.drainTime(util::Bytes{887'444}).toMilliseconds(), 43.48,
              43.48 * 0.011);
  EXPECT_NEAR(icap.drainTime(util::Bytes{404'388}).toMilliseconds(), 19.77,
              19.77 * 0.011);
}

TEST_F(ConfigFixture, IcapLoadRunsPipelineAndApplies) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));

  sim::SimplexLink link{sim_, "HT-in",
                        util::DataRate::megabytesPerSecond(1400)};
  IcapController icap{sim_, memory_, link};
  const auto part = builder_.buildModulePartial(plan_.prr(0), 7);

  auto load = [&](IcapController& c, const bitstream::Bitstream& s)
      -> sim::Process { co_await c.load(s); };
  sim_.spawn(load(icap, part));
  sim_.run();

  // End-to-end time is drain-dominated: within a chunk of the drain time.
  const double drainMs = icap.drainTime(part.size()).toMilliseconds();
  EXPECT_NEAR(sim_.now().toMilliseconds(), drainMs, drainMs * 0.02);
  const auto range = plan_.prr(0).frames(plan_.device());
  EXPECT_EQ(memory_.frameOwner(range.first), 7u);
  EXPECT_EQ(icap.loadsPerformed(), 1u);
  // The partial bitstream went over the host link.
  EXPECT_EQ(link.totalBytes().count(), part.size().count());
}

TEST_F(ConfigFixture, IcapRejectsFullStreams) {
  sim::SimplexLink link{sim_, "HT-in",
                        util::DataRate::megabytesPerSecond(1400)};
  IcapController icap{sim_, memory_, link};
  const auto full = builder_.buildFull(1);
  auto load = [&](IcapController& c, const bitstream::Bitstream& s)
      -> sim::Process { co_await c.load(s); };
  sim_.spawn(load(icap, full));
  EXPECT_THROW(sim_.run(), util::ConfigError);
}

TEST_F(ConfigFixture, ManagerRoutesAndTracksModules) {
  sim::SimplexLink link{sim_, "HT-in",
                        util::DataRate::megabytesPerSecond(1400)};
  VendorApi api{sim_, memory_};
  IcapController icap{sim_, memory_, link};
  Manager manager{sim_, plan_, api, icap};

  const auto full = builder_.buildFull(1);
  const auto partA = builder_.buildModulePartial(plan_.prr(0), 7);
  const auto partB = builder_.buildModulePartial(plan_.prr(1), 9);

  auto scenario = [&]() -> sim::Process {
    co_await manager.fullConfigure(full);
    EXPECT_EQ(manager.loadedModule(0), std::nullopt);
    co_await manager.loadModule(0, 7, partA);
    co_await manager.loadModule(1, 9, partB);
  };
  sim_.spawn(scenario());
  sim_.run();

  EXPECT_EQ(manager.loadedModule(0), std::optional<bitstream::ModuleId>{7});
  EXPECT_EQ(manager.loadedModule(1), std::optional<bitstream::ModuleId>{9});
  EXPECT_EQ(manager.findModule(9), std::optional<std::size_t>{1});
  EXPECT_EQ(manager.findModule(42), std::nullopt);
  EXPECT_EQ(manager.fullConfigCount(), 1u);
  EXPECT_EQ(manager.partialConfigCount(), 2u);
  EXPECT_FALSE(manager.reconfiguring(0));
}

TEST_F(ConfigFixture, ManagerRejectsStreamOutsideTargetPrr) {
  sim::SimplexLink link{sim_, "HT-in",
                        util::DataRate::megabytesPerSecond(1400)};
  VendorApi api{sim_, memory_};
  IcapController icap{sim_, memory_, link};
  Manager manager{sim_, plan_, api, icap};

  const auto full = builder_.buildFull(1);
  const auto partA = builder_.buildModulePartial(plan_.prr(0), 7);
  auto scenario = [&]() -> sim::Process {
    co_await manager.fullConfigure(full);
    co_await manager.loadModule(1, 7, partA);  // PRR0 stream into PRR1
  };
  sim_.spawn(scenario());
  EXPECT_THROW(sim_.run(), util::ConfigError);
}

}  // namespace
}  // namespace prtr::config
