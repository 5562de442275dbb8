// Tests for configuration ports, configuration memory, the vendor-API
// emulation (partial-rejection behaviour of paper section 4.1), and the
// ICAP controller timing calibration.
#include <gtest/gtest.h>

#include <vector>

#include "bitstream/builder.hpp"
#include "bitstream/library.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "config/icap_controller.hpp"
#include "config/manager.hpp"
#include "config/memory.hpp"
#include "config/port.hpp"
#include "config/vendor_api.hpp"
#include "fabric/floorplan.hpp"
#include "sim/link.hpp"
#include "sim/simulator.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

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
  EXPECT_EQ(memory_.parsedFor(clean)->header.frameCount,
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

// ---- Frame runs: applying a stream run by run must leave exactly the
// frame owners a write-by-write application would.

/// frameOwner after applying `stream` one write at a time onto `owners`:
/// the frames its encoded bytes address, read independently of any parse.
void applyWriteByWrite(std::vector<std::uint64_t>& owners,
                       const bitstream::Bitstream& stream,
                       const fabric::Device& device) {
  const std::vector<std::uint8_t>& bytes = stream.bytes();
  const auto& enc = device.geometry().encoding();
  std::size_t at = enc.partialOverheadBytes - 4;
  for (std::uint32_t i = 0; i < stream.header().frameCount; ++i) {
    std::uint32_t frame = i;
    if (stream.isPartial()) {
      frame = static_cast<std::uint32_t>(bytes[at]) |
              static_cast<std::uint32_t>(bytes[at + 1]) << 8 |
              static_cast<std::uint32_t>(bytes[at + 2]) << 16 |
              static_cast<std::uint32_t>(bytes[at + 3]) << 24;
      at += enc.frameAddressBytes + enc.frameBytes;
    }
    owners.at(frame) = stream.header().moduleId;
  }
}

std::vector<std::uint64_t> ownersOf(const ConfigMemory& memory) {
  std::vector<std::uint64_t> owners(
      memory.device().geometry().totalFrames());
  for (std::uint32_t frame = 0; frame < owners.size(); ++frame) {
    owners[frame] = memory.frameOwner(frame);
  }
  return owners;
}

TEST(FrameRuns, CoalesceConsecutiveFramesInOrder) {
  const std::vector<std::uint32_t> frames{3, 4, 5, 9, 10, 20, 21, 22, 23, 40};
  std::vector<bitstream::FrameRun> runs;
  for (const std::uint32_t frame : frames) bitstream::appendFrame(runs, frame);
  EXPECT_EQ(runs,
            (std::vector<bitstream::FrameRun>{{3, 3}, {9, 2}, {20, 4}, {40, 1}}));
}

TEST(FrameRuns, EveryLibraryStreamAppliesLikeItsWrites) {
  for (const fabric::Floorplan& plan :
       {fabric::makeSinglePrrLayout(), fabric::makeDualPrrLayout(),
        fabric::makeQuadPrrLayout()}) {
    // Sparse occupancies make module partials and difference partials skip
    // frames, so their writes are not one contiguous span.
    bitstream::Library library{
        plan, {{1, "a", 1.0}, {2, "b", 0.5}, {3, "c", 0.13}}};
    ConfigMemory memory{plan.device()};
    std::vector<std::uint64_t> reference(
        plan.device().geometry().totalFrames(), 0);
    const auto check = [&](const bitstream::Bitstream& stream) {
      const bitstream::ParsedRef parsed = memory.parsedFor(stream);
      std::uint64_t covered = 0;
      for (const bitstream::FrameRun& run : parsed->frameRuns) {
        covered += run.count;
      }
      EXPECT_EQ(covered, parsed->header.frameCount);
      if (parsed->header.type == bitstream::StreamType::kFull) {
        EXPECT_EQ(parsed->frameRuns.size(), 1u);
        memory.applyFull(*parsed);
      } else {
        memory.applyPartial(*parsed);
      }
      applyWriteByWrite(reference, stream, plan.device());
      EXPECT_EQ(ownersOf(memory), reference);
    };
    check(library.full());
    for (std::size_t prr = 0; prr < plan.prrCount(); ++prr) {
      for (const auto& from : library.modules()) {
        check(library.modulePartial(prr, from.id));
        check(library.prrReload(prr, from.id));
        for (const auto& to : library.modules()) {
          if (to.id != from.id) {
            check(library.differencePartial(prr, from.id, to.id));
          }
        }
      }
    }
  }
}

/// `stream` with its frame addresses spread out: write i goes to frame
/// firstFrame + i + i / stride, so the writes form runs of `stride` frames
/// separated by one-frame gaps. The CRC is recomputed; the result parses.
bitstream::Bitstream gapped(const bitstream::Bitstream& stream,
                            const fabric::Device& device, std::uint32_t stride) {
  const auto& enc = device.geometry().encoding();
  std::vector<std::uint8_t> bytes = stream.bytes();
  const auto putU32 = [&](std::size_t at, std::uint32_t value) {
    for (int b = 0; b < 4; ++b) {
      bytes[at + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(value >> (8 * b));
    }
  };
  std::size_t at = enc.partialOverheadBytes - 4;
  for (std::uint32_t i = 0; i < stream.header().frameCount; ++i) {
    putU32(at, stream.header().firstFrame + i + i / stride);
    at += enc.frameAddressBytes + enc.frameBytes;
  }
  putU32(bytes.size() - 4,
         util::Crc32::of(std::span{bytes.data(), bytes.size() - 4}));
  return bitstream::Bitstream{stream.header(), std::move(bytes)};
}

TEST(FrameRuns, NonContiguousWritesApplyLikeTheirWrites) {
  for (const fabric::Floorplan& plan :
       {fabric::makeSinglePrrLayout(), fabric::makeDualPrrLayout(),
        fabric::makeQuadPrrLayout()}) {
    bitstream::Library library{plan, {{4, "m", 0.5}}};
    ConfigMemory memory{plan.device()};
    const bitstream::ParsedRef full = memory.parsedFor(library.full());
    memory.applyFull(*full);
    std::vector<std::uint64_t> reference(
        plan.device().geometry().totalFrames(), 0);
    applyWriteByWrite(reference, library.full(), plan.device());
    const bitstream::Bitstream& base = library.modulePartial(0, 4);
    const std::uint32_t frames = base.header().frameCount;
    for (const std::uint32_t stride : {1u, 2u, 7u, frames - 1}) {
      const bitstream::Bitstream stream = gapped(base, plan.device(), stride);
      const bitstream::ParsedRef parsed = memory.parsedFor(stream);
      ASSERT_EQ(parsed->frameRuns.size(), (frames + stride - 1) / stride);
      memory.applyPartial(*parsed);
      applyWriteByWrite(reference, stream, plan.device());
      EXPECT_EQ(ownersOf(memory), reference) << "stride " << stride;
    }
  }
}

TEST(FrameRuns, SeededInterleavingsMatchThePerWriteReference) {
  // Full streams take the O(1) whole-device path (base owner + epoch) and
  // partials stamp their frames; random interleavings of both, of
  // relocated partials and of resets must read back exactly the owners a
  // write-by-write application leaves.
  for (const fabric::Floorplan& plan :
       {fabric::makeSinglePrrLayout(), fabric::makeDualPrrLayout(),
        fabric::makeQuadPrrLayout()}) {
    bitstream::Library library{
        plan, {{1, "a", 1.0}, {2, "b", 0.5}, {3, "c", 0.13}}};
    const bitstream::Builder builder{plan.device()};
    std::vector<bitstream::Bitstream> streams{library.full(),
                                              builder.buildFull(77)};
    for (std::size_t prr = 0; prr < plan.prrCount(); ++prr) {
      for (const auto& from : library.modules()) {
        streams.push_back(library.modulePartial(prr, from.id));
        streams.push_back(library.prrReload(prr, from.id));
        for (const auto& to : library.modules()) {
          if (to.id != from.id) {
            streams.push_back(library.differencePartial(prr, from.id, to.id));
          }
        }
        for (std::size_t other = 0; other < plan.prrCount(); ++other) {
          if (other != prr && bitstream::regionsCompatible(
                                  plan.device(), plan.prr(prr),
                                  plan.prr(other))) {
            streams.push_back(bitstream::relocate(
                library.modulePartial(prr, from.id), plan.device(),
                plan.prr(prr), plan.prr(other)));
          }
        }
      }
    }
    const std::size_t fulls = 2;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      util::Rng rng{seed};
      ConfigMemory memory{plan.device()};
      std::vector<std::uint64_t> reference(
          plan.device().geometry().totalFrames(), 0);
      for (int step = 0; step < 120; ++step) {
        if (rng.below(40) == 0) {
          memory.reset();
          reference.assign(reference.size(), 0);
          EXPECT_FALSE(memory.done());
          EXPECT_EQ(memory.framesWritten(), 0u);
        } else {
          // A partial needs an operating device; otherwise load a full.
          const std::size_t pick =
              memory.done() ? static_cast<std::size_t>(rng.below(streams.size()))
                            : static_cast<std::size_t>(rng.below(fulls));
          const bitstream::ParsedRef parsed = memory.parsedFor(streams[pick]);
          if (pick < fulls) {
            memory.applyFull(*parsed);
          } else {
            memory.applyPartial(*parsed);
          }
          applyWriteByWrite(reference, streams[pick], plan.device());
        }
        ASSERT_EQ(ownersOf(memory), reference)
            << "seed " << seed << " step " << step;
      }
    }
  }
}

TEST_F(ConfigFixture, ResetClearsEveryOwner) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));
  const auto part = builder_.buildModulePartial(plan_.prr(1), 7);
  memory_.applyPartial(*bitstream::parse(part, plan_.device()));
  memory_.reset();
  EXPECT_EQ(ownersOf(memory_),
            std::vector<std::uint64_t>(
                plan_.device().geometry().totalFrames(), 0));
  EXPECT_EQ(memory_.framesWritten(), 0u);
  // Stamps from before the reset stay stale after the next full stream.
  memory_.applyFull(*bitstream::parse(builder_.buildFull(3), plan_.device()));
  EXPECT_EQ(ownersOf(memory_),
            std::vector<std::uint64_t>(
                plan_.device().geometry().totalFrames(), 3));
}

TEST_F(ConfigFixture, OutOfRangeFrameRunThrows) {
  const auto full = builder_.buildFull(1);
  memory_.applyFull(*bitstream::parse(full, plan_.device()));
  const std::uint32_t frames = plan_.device().geometry().totalFrames();
  bitstream::ParsedStream stream;
  stream.header.type = bitstream::StreamType::kPartial;
  stream.header.moduleId = 9;
  stream.frameRuns = {{frames - 2, 5}};
  EXPECT_THROW(memory_.applyPartial(stream), util::ConfigError);
  stream.frameRuns = {{frames, 1}};
  EXPECT_THROW(memory_.applyPartial(stream), util::ConfigError);
  // The last in-range frame is writable.
  stream.frameRuns = {{frames - 1, 1}};
  memory_.applyPartial(stream);
  EXPECT_EQ(memory_.frameOwner(frames - 1), 9u);
}

}  // namespace
}  // namespace prtr::config
