// Failure injection: corrupted/truncated/foreign bitstreams, API
// rejections, and protocol misuse must fail loudly and leave hardware
// state untouched.
#include <gtest/gtest.h>

#include "bitstream/builder.hpp"
#include "bitstream/parser.hpp"
#include "config/icap_controller.hpp"
#include "config/manager.hpp"
#include "config/vendor_api.hpp"
#include "fabric/floorplan.hpp"
#include "sim/link.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr {
namespace {

class FailureFixture : public ::testing::Test {
 protected:
  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  bitstream::Builder builder_{plan_.device()};
  sim::Simulator sim_;
  config::ConfigMemory memory_{plan_.device()};
  sim::SimplexLink link_{sim_, "HT-in",
                         util::DataRate::megabytesPerSecond(1400)};
  config::VendorApi api_{sim_, memory_};
  config::IcapController icap_{sim_, memory_, link_};
  config::Manager manager_{sim_, plan_, api_, icap_};

  void fullConfigure() {
    memory_.applyFull(*bitstream::parse(builder_.buildFull(1), plan_.device()));
  }

  bitstream::Bitstream corrupt(bitstream::Bitstream stream, std::size_t at) {
    auto bytes = stream.bytes();
    bytes.at(at) ^= 0x5A;
    return bitstream::Bitstream{stream.header(), std::move(bytes)};
  }
};

TEST_F(FailureFixture, CorruptPayloadRejectedBeforeHardwareTouch) {
  fullConfigure();
  const auto clean = builder_.buildModulePartial(plan_.prr(0), 7);
  const auto bad = corrupt(clean, clean.bytes().size() / 2);
  const std::uint64_t framesBefore = memory_.framesWritten();

  auto load = [&](const bitstream::Bitstream& s) -> sim::Process {
    co_await icap_.load(s);
  };
  sim_.spawn(load(bad));
  EXPECT_THROW(sim_.run(), util::BitstreamError);
  EXPECT_EQ(memory_.framesWritten(), framesBefore);
  EXPECT_EQ(icap_.loadsPerformed(), 0u);
}

TEST_F(FailureFixture, EveryCorruptionOffsetIsCaught) {
  fullConfigure();
  const auto clean = builder_.buildModulePartial(plan_.prr(1), 9);
  util::Rng rng{321};
  for (int trial = 0; trial < 24; ++trial) {
    const std::size_t at = rng.below(clean.bytes().size());
    const auto bad = corrupt(clean, at);
    EXPECT_THROW((void)bitstream::parse(bad, plan_.device()),
                 util::BitstreamError)
        << "offset " << at;
  }
}

TEST_F(FailureFixture, TruncatedStreamsRejectedAtEveryLength) {
  const auto clean = builder_.buildModulePartial(plan_.prr(0), 7);
  for (const double fraction : {0.0, 0.1, 0.5, 0.9, 0.999}) {
    const auto length =
        static_cast<std::size_t>(fraction * static_cast<double>(clean.bytes().size()));
    const std::vector<std::uint8_t> cut(clean.bytes().begin(),
                                        clean.bytes().begin() +
                                            static_cast<std::ptrdiff_t>(length));
    EXPECT_THROW((void)bitstream::parse(std::span{cut}, plan_.device()),
                 util::BitstreamError);
  }
}

TEST_F(FailureFixture, ForeignDeviceStreamRejectedByManager) {
  fullConfigure();
  const fabric::Device other = fabric::makeXc2vp30();
  const bitstream::Builder otherBuilder{other};
  fabric::Region foreign{"f", fabric::RegionRole::kPrr, 2, 5};
  const auto stream = otherBuilder.buildModulePartial(foreign, 7);

  auto load = [&](const bitstream::Bitstream& s) -> sim::Process {
    co_await manager_.loadModule(0, 7, s);
  };
  sim_.spawn(load(stream));
  // Either the frame-range guard or the device tag fires; both are errors.
  EXPECT_ANY_THROW(sim_.run());
  EXPECT_EQ(manager_.partialConfigCount(), 0u);
}

TEST_F(FailureFixture, VendorRejectionPropagatesAsConfigError) {
  const auto partial = builder_.buildModulePartial(plan_.prr(0), 7);
  auto load = [&](const bitstream::Bitstream& s) -> sim::Process {
    co_await manager_.fullConfigure(s);  // partial via the full-config API
  };
  sim_.spawn(load(partial));
  EXPECT_THROW(sim_.run(), util::ConfigError);
  EXPECT_FALSE(memory_.done());
  EXPECT_EQ(manager_.fullConfigCount(), 0u);
}

TEST_F(FailureFixture, PartialIntoUnconfiguredDeviceFails) {
  const auto partial = builder_.buildModulePartial(plan_.prr(0), 7);
  auto load = [&](const bitstream::Bitstream& s) -> sim::Process {
    co_await manager_.loadModule(0, 7, s);
  };
  sim_.spawn(load(partial));
  EXPECT_THROW(sim_.run(), util::ConfigError);
}

TEST_F(FailureFixture, WrongPrrTargetRejectedWithoutSideEffects) {
  fullConfigure();
  const auto partial = builder_.buildModulePartial(plan_.prr(0), 7);
  auto load = [&](const bitstream::Bitstream& s) -> sim::Process {
    co_await manager_.loadModule(1, 7, s);
  };
  sim_.spawn(load(partial));
  EXPECT_THROW(sim_.run(), util::ConfigError);
  EXPECT_EQ(manager_.loadedModule(1), std::nullopt);
}

TEST_F(FailureFixture, HeaderFieldCorruptionDetected) {
  fullConfigure();
  const auto clean = builder_.buildModulePartial(plan_.prr(0), 7);
  // Flip a bit in the frame-count field: CRC catches it even though the
  // payload is untouched.
  auto bytes = clean.bytes();
  bytes[16] ^= 0x01;
  EXPECT_THROW((void)bitstream::parse(std::span{bytes}, plan_.device()),
               util::BitstreamError);
}

TEST_F(FailureFixture, RecoveryAfterRejectedLoad) {
  // A failed load must not poison the device: a subsequent clean load
  // succeeds and configures normally.
  fullConfigure();
  const auto clean = builder_.buildModulePartial(plan_.prr(0), 7);
  const auto bad = corrupt(clean, clean.bytes().size() - 10);

  auto scenario = [&]() -> sim::Process {
    try {
      co_await icap_.load(bad);
    } catch (const util::BitstreamError&) {
      // expected; retry with the clean stream
    }
    co_await icap_.load(clean);
  };
  sim_.spawn(scenario());
  sim_.run();
  EXPECT_EQ(icap_.loadsPerformed(), 1u);
  EXPECT_EQ(memory_.frameOwner(plan_.prr(0).frames(plan_.device()).first), 7u);
}

}  // namespace
}  // namespace prtr
