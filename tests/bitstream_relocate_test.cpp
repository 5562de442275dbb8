// Tests for module relocation between compatible PRRs.
#include <gtest/gtest.h>

#include "bitstream/builder.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "config/memory.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"

namespace prtr::bitstream {
namespace {

TEST(RelocateTest, QuadPrrsAreMutuallyCompatible) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  for (std::size_t a = 0; a < plan.prrCount(); ++a) {
    for (std::size_t b = 0; b < plan.prrCount(); ++b) {
      EXPECT_TRUE(regionsCompatible(plan.device(), plan.prr(a), plan.prr(b)));
    }
  }
}

TEST(RelocateTest, DualPrrEdgesAreMirroredHenceIncompatible) {
  // PRR0 = IOB,IOB,CLBx13,BRAM but PRR1 = BRAM,CLBx13,IOB,IOB -- same
  // column multiset, different order: relocation is not legal.
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  EXPECT_FALSE(regionsCompatible(plan.device(), plan.prr(0), plan.prr(1)));
}

TEST(RelocateTest, RelocatedStreamParsesAndTargetsNewRegion) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream original = builder.buildModulePartial(plan.prr(0), 77, 0.4);
  const Bitstream moved =
      relocate(original, plan.device(), plan.prr(0), plan.prr(2));

  EXPECT_EQ(moved.size(), original.size());
  const ParsedStream& parsed = *parse(moved, plan.device());
  const fabric::FrameRange target = plan.prr(2).frames(plan.device());
  EXPECT_EQ(parsed.frameRuns,
            (std::vector<FrameRun>{{target.first, target.count}}));
  EXPECT_EQ(parsed.header.moduleId, 77u);
}

TEST(RelocateTest, PayloadsArePreservedBitExact) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream original = builder.buildModulePartial(plan.prr(1), 9, 0.8);
  const Bitstream moved =
      relocate(original, plan.device(), plan.prr(1), plan.prr(3));

  // Payload i of each stream, in write order.
  const auto payloads = [&plan](const Bitstream& stream) {
    std::vector<std::vector<std::uint8_t>> out;
    parse(stream, plan.device())
        ->forEachPayload([&out](std::uint32_t,
                                std::span<const std::uint8_t> payload) {
          out.emplace_back(payload.begin(), payload.end());
        });
    return out;
  };
  const auto before = payloads(original);
  EXPECT_EQ(before.size(), original.header().frameCount);
  EXPECT_EQ(payloads(moved), before);
}

TEST(RelocateTest, RelocatedStreamLoadsIntoConfigMemory) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  config::ConfigMemory memory{plan.device()};
  memory.applyFull(*parse(builder.buildFull(1), plan.device()));

  const Bitstream original = builder.buildModulePartial(plan.prr(0), 42);
  const Bitstream moved =
      relocate(original, plan.device(), plan.prr(0), plan.prr(3));
  memory.applyPartial(*parse(moved, plan.device()));

  const fabric::FrameRange target = plan.prr(3).frames(plan.device());
  EXPECT_EQ(memory.frameOwner(target.first), 42u);
  const fabric::FrameRange source = plan.prr(0).frames(plan.device());
  EXPECT_EQ(memory.frameOwner(source.first), 1u);  // source untouched
}

TEST(RelocateTest, RoundTripRestoresOriginalBytes) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream original = builder.buildModulePartial(plan.prr(0), 5);
  const Bitstream there =
      relocate(original, plan.device(), plan.prr(0), plan.prr(1));
  const Bitstream back =
      relocate(there, plan.device(), plan.prr(1), plan.prr(0));
  EXPECT_EQ(back.bytes(), original.bytes());
}

TEST(RelocateTest, RejectsIncompatibleRegions) {
  const fabric::Floorplan dual = fabric::makeDualPrrLayout();
  const Builder builder{dual.device()};
  const Bitstream stream = builder.buildModulePartial(dual.prr(0), 5);
  EXPECT_THROW(relocate(stream, dual.device(), dual.prr(0), dual.prr(1)),
               util::DomainError);
}

TEST(RelocateTest, RejectsFullStreams) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream full = builder.buildFull(1);
  EXPECT_THROW(relocate(full, plan.device(), plan.prr(0), plan.prr(1)),
               util::BitstreamError);
}

TEST(RelocateTest, RejectsStreamFromAnotherRegion) {
  const fabric::Floorplan plan = fabric::makeQuadPrrLayout();
  const Builder builder{plan.device()};
  const Bitstream stream = builder.buildModulePartial(plan.prr(2), 5);
  EXPECT_THROW(relocate(stream, plan.device(), plan.prr(0), plan.prr(1)),
               util::BitstreamError);
}

TEST(RelocateTest, SavingsAccounting) {
  const RelocationSavings s =
      relocationSavings(util::Bytes{300'000}, /*nModules=*/8,
                        /*nCompatibleRegions=*/4);
  EXPECT_EQ(s.withoutRelocation.count(), 300'000u * 32);
  EXPECT_EQ(s.withRelocation.count(), 300'000u * 8);
  EXPECT_DOUBLE_EQ(s.ratio(), 4.0);
}

}  // namespace
}  // namespace prtr::bitstream
