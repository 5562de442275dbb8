// Independent oracle for config::ConfigMemory: seeded random sequences of
// full loads, module/difference/relocated partials, upsets, frame repairs
// and resets on the dual-PRR device, checked after every operation against
// a naive reference — a flat byte image and an owner per frame, filled from
// each stream's forEachPayload slices.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bitstream/builder.hpp"
#include "bitstream/parser.hpp"
#include "bitstream/relocate.hpp"
#include "config/memory.hpp"
#include "config/scrubber.hpp"
#include "fabric/floorplan.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::config {
namespace {

/// A stream of the pool and its payloads, in write order.
struct Golden {
  std::string name;
  bitstream::Bitstream stream;
  std::vector<std::pair<std::uint32_t, std::vector<std::uint8_t>>> payloads;
};

/// The flat reference memory.
struct Reference {
  Reference(std::uint32_t frames, std::uint32_t bytesPerFrame)
      : frameBytes(bytesPerFrame),
        image(std::size_t{frames} * bytesPerFrame, 0),
        owner(frames, 0) {}

  std::span<std::uint8_t> frame(std::uint32_t f) {
    return std::span{image}.subspan(std::size_t{f} * frameBytes, frameBytes);
  }

  void apply(const Golden& golden) {
    for (const auto& [f, payload] : golden.payloads) {
      std::copy(payload.begin(), payload.end(), frame(f).begin());
      owner[f] = golden.stream.header().moduleId;
    }
    framesWritten += golden.stream.header().frameCount;
  }

  std::uint64_t repair(const Golden& golden,
                       const std::vector<std::uint32_t>& frames) {
    std::uint64_t repaired = 0;
    for (const auto& [f, payload] : golden.payloads) {
      if (std::find(frames.begin(), frames.end(), f) == frames.end()) continue;
      std::copy(payload.begin(), payload.end(), frame(f).begin());
      ++repaired;
    }
    framesWritten += repaired;
    return repaired;
  }

  /// The frames `golden` writes whose content differs from its payload.
  std::vector<std::uint32_t> corrupted(const Golden& golden) {
    std::vector<std::uint32_t> out;
    for (const auto& [f, payload] : golden.payloads) {
      const auto current = frame(f);
      if (!std::equal(current.begin(), current.end(), payload.begin())) {
        out.push_back(f);
      }
    }
    return out;
  }

  void reset() {
    std::fill(image.begin(), image.end(), std::uint8_t{0});
    std::fill(owner.begin(), owner.end(), std::uint64_t{0});
    done = false;
    framesWritten = 0;
    upsets = 0;
  }

  std::uint32_t frameBytes;
  std::vector<std::uint8_t> image;
  std::vector<std::uint64_t> owner;
  bool done = false;
  std::uint64_t framesWritten = 0;
  std::uint64_t upsets = 0;
};

class MemoryOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    const bitstream::Builder builder{device()};
    // CLB-only sub-regions of the two PRRs with equal column signatures, so
    // a module moves between them by relocation (a byte-backed stream).
    const fabric::Region sub0{"SUB0", fabric::RegionRole::kPrr, 2, 13};
    const fabric::Region sub1{"SUB1", fabric::RegionRole::kPrr, 68, 13};
    const auto add = [this](std::string name, bitstream::Bitstream stream) {
      pool_.push_back(Golden{std::move(name), std::move(stream), {}});
    };
    add("full1", builder.buildFull(1));
    add("full2", builder.buildFull(2));
    for (std::size_t prr = 0; prr < plan_.prrCount(); ++prr) {
      const fabric::Region& region = plan_.prr(prr);
      const std::string at = "prr" + std::to_string(prr) + "/";
      add(at + "module7", builder.buildModulePartial(region, 7));
      add(at + "module7half", builder.buildModulePartial(region, 7, 0.5));
      add(at + "module9", builder.buildModulePartial(region, 9, 0.8));
      add(at + "diff7to9", builder.buildDifferencePartial(region, 7, 1.0, 9, 0.8));
      add(at + "diff9to7half",
          builder.buildDifferencePartial(region, 9, 0.8, 7, 0.5));
    }
    const bitstream::Bitstream module9 =
        builder.buildModulePartial(plan_.prr(1), 9, 0.8);
    add("prr1/module9bytes", bitstream::Bitstream{module9.header(),
                                                   module9.bytes()});
    add("sub0to1/module11",
        bitstream::relocate(builder.buildModulePartial(sub0, 11, 0.6),
                            device(), sub0, sub1));
    add("sub1to0/module13",
        bitstream::relocate(builder.buildModulePartial(sub1, 13),
                            device(), sub1, sub0));
    for (Golden& golden : pool_) {
      bitstream::parse(golden.stream, device())
          ->forEachPayload([&golden](std::uint32_t frame,
                                     std::span<const std::uint8_t> payload) {
            golden.payloads.emplace_back(
                frame, std::vector<std::uint8_t>(payload.begin(), payload.end()));
          });
      ASSERT_EQ(golden.payloads.size(), golden.stream.header().frameCount)
          << golden.name;
    }
  }

  const fabric::Device& device() const { return plan_.device(); }

  /// Every observable of `memory` against `ref`.
  void expectMatches(ConfigMemory& memory, Reference& ref,
                     const std::string& step) {
    SCOPED_TRACE(step);
    ASSERT_EQ(memory.done(), ref.done);
    ASSERT_EQ(memory.framesWritten(), ref.framesWritten);
    ASSERT_EQ(memory.upsetsInjected(), ref.upsets);
    const std::uint32_t frames = device().geometry().totalFrames();
    for (std::uint32_t f = 0; f < frames; ++f) {
      ASSERT_EQ(memory.frameOwner(f), ref.owner[f]) << "frame " << f;
      const auto content = memory.frameContent(f);
      const auto expected = ref.frame(f);
      ASSERT_TRUE(std::equal(content.begin(), content.end(), expected.begin(),
                             expected.end()))
          << "frame " << f;
    }
    for (const Golden& golden : pool_) {
      ASSERT_EQ(verifyRegion(memory, golden.stream), ref.corrupted(golden))
          << golden.name;
    }
  }

  /// Runs `steps` random operations from `seed`.
  void run(std::uint64_t seed, int steps) {
    util::Rng rng{seed};
    const std::uint32_t frames = device().geometry().totalFrames();
    const std::uint32_t frameBytes = device().geometry().encoding().frameBytes;
    ConfigMemory memory{device()};
    Reference ref{frames, frameBytes};
    expectMatches(memory, ref, "power-up");

    const Golden* last = nullptr;
    std::uint32_t lastFrame = 0;
    std::uint32_t lastOffset = 0;
    std::uint8_t lastMask = 1;
    for (int step = 0; step < steps; ++step) {
      std::string what;
      const std::uint64_t op = rng.below(100);
      if (op < 12) {
        const Golden& full = pool_[rng.below(2)];
        memory.applyFull(*bitstream::parse(full.stream, device()));
        ref.apply(full);
        ref.done = true;
        last = &full;
        what = "applyFull " + full.name;
      } else if (op < 42) {
        const Golden& part = pool_[2 + rng.below(pool_.size() - 2)];
        const auto parsed = bitstream::parse(part.stream, device());
        if (ref.done) {
          memory.applyPartial(*parsed);
          ref.apply(part);
          last = &part;
        } else {
          EXPECT_THROW(memory.applyPartial(*parsed), util::ConfigError);
        }
        what = "applyPartial " + part.name;
      } else if (op < 77) {
        // Mostly inside the last stream's frames, sometimes anywhere, and
        // sometimes the previous bit again (which cancels it).
        if (rng.chance(0.2) && ref.upsets > 0) {
          what = "repeat upset";
        } else {
          if (last != nullptr && rng.chance(0.8)) {
            lastFrame = last->payloads[rng.below(last->payloads.size())].first;
          } else {
            lastFrame = static_cast<std::uint32_t>(rng.below(frames));
          }
          lastOffset = static_cast<std::uint32_t>(rng.below(frameBytes));
          lastMask = static_cast<std::uint8_t>(1u + rng.below(255));
          what = "upset";
        }
        memory.injectUpset(lastFrame, lastOffset, lastMask);
        ref.frame(lastFrame)[lastOffset] ^= lastMask;
        ++ref.upsets;
        what += " frame " + std::to_string(lastFrame);
      } else if (op < 95) {
        // Repairs from any pool stream: its own frames, unsorted and with
        // repeats, plus frames it does not write.
        const Golden& golden = pool_[rng.below(pool_.size())];
        std::vector<std::uint32_t> wanted;
        const std::uint64_t count = 1 + rng.below(12);
        for (std::uint64_t i = 0; i < count; ++i) {
          wanted.push_back(
              rng.chance(0.8)
                  ? golden.payloads[rng.below(golden.payloads.size())].first
                  : static_cast<std::uint32_t>(rng.below(frames)));
        }
        if (rng.chance(0.3)) wanted.push_back(wanted.front());
        const std::uint64_t repaired = memory.repairFrames(
            *bitstream::parse(golden.stream, device()), wanted);
        EXPECT_EQ(repaired, ref.repair(golden, wanted));
        what = "repairFrames " + golden.name;
      } else {
        memory.reset();
        ref.reset();
        last = nullptr;
        what = "reset";
      }
      expectMatches(memory, ref,
                    "seed " + std::to_string(seed) + " step " +
                        std::to_string(step) + ": " + what);
      if (HasFatalFailure()) return;
    }
  }

  fabric::Floorplan plan_ = fabric::makeDualPrrLayout();
  std::vector<Golden> pool_;
};

TEST_F(MemoryOracle, RandomSequencesMatchFlatImage) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    run(seed, 40);
    if (HasFatalFailure()) return;
  }
}

TEST_F(MemoryOracle, UpsetThenRepairByEveryStreamKind) {
  // A scripted walk through every content source: a recipe region, a
  // literal (byte-backed) region, a difference partial over a module, and
  // repairs from a matching and a non-matching stream.
  const std::uint32_t frames = device().geometry().totalFrames();
  ConfigMemory memory{device()};
  Reference ref{frames, device().geometry().encoding().frameBytes};
  const auto apply = [&](std::size_t i) {
    const Golden& golden = pool_[i];
    const auto parsed = bitstream::parse(golden.stream, device());
    if (golden.stream.header().type == bitstream::StreamType::kFull) {
      memory.applyFull(*parsed);
      ref.done = true;
    } else {
      memory.applyPartial(*parsed);
    }
    ref.apply(golden);
    expectMatches(memory, ref, "apply " + golden.name);
  };
  const auto find = [&](const std::string& name) {
    for (std::size_t i = 0; i < pool_.size(); ++i) {
      if (pool_[i].name == name) return i;
    }
    ADD_FAILURE() << name;
    return std::size_t{0};
  };
  const auto upset = [&](std::uint32_t frame, std::uint32_t offset,
                         std::uint8_t mask) {
    memory.injectUpset(frame, offset, mask);
    ref.frame(frame)[offset] ^= mask;
    ++ref.upsets;
    expectMatches(memory, ref, "upset " + std::to_string(frame));
  };
  const auto repair = [&](const std::string& name,
                          std::vector<std::uint32_t> wanted) {
    const Golden& golden = pool_[find(name)];
    EXPECT_EQ(memory.repairFrames(*bitstream::parse(golden.stream, device()),
                                  wanted),
              ref.repair(golden, wanted));
    expectMatches(memory, ref, "repair " + name);
  };

  const std::uint32_t prr0 = plan_.prr(0).frames(device()).first;
  const std::uint32_t prr1 = plan_.prr(1).frames(device()).first;
  apply(find("full1"));
  apply(find("prr0/module7"));
  upset(prr0 + 4, 10, 0x21);
  upset(prr0 + 4, 10, 0x21);  // the same bits again: clean once more
  upset(prr0 + 5, 0, 0x80);
  repair("prr0/module7half", {prr0 + 5});  // another source: literal bytes
  repair("prr0/module7", {prr0 + 5});      // the run's own source again
  apply(find("prr0/diff7to9"));
  upset(prr0 + 300, 7, 0x01);
  apply(find("sub1to0/module13"));
  upset(prr0 + 30, 1, 0x02);
  repair("sub1to0/module13", {prr0 + 30});
  apply(find("prr0/module9"));  // a recipe write over the literal frames
  apply(find("prr1/module9bytes"));
  upset(prr1 + 2, 3, 0x04);
  repair("prr1/module9", {prr1 + 2});
  apply(find("sub0to1/module11"));
  apply(find("full2"));
  memory.reset();
  ref.reset();
  expectMatches(memory, ref, "reset");
}

}  // namespace
}  // namespace prtr::config
