// Recovery-runtime unit tests: bounded retry with backoff over injected
// ICAP aborts, readback-verify + frame-granular repair of word flips, the
// degradation ladder (module partial -> full-PRR reload -> full device),
// and the healthy-path contract that an enabled-but-unused recovery policy
// changes nothing about simulated time. Fixed-period arrival plans make the
// fault schedule exact, so every assertion is on deterministic counts.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "bitstream/library.hpp"
#include "config/manager.hpp"
#include "config/recovery.hpp"
#include "config/scrubber.hpp"
#include "fault/fault.hpp"
#include "sim/simulator.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "xd1/node.hpp"

namespace prtr {
namespace {

using config::RecoveryRung;
using config::RecoveryStreams;
using config::VerifyMode;

constexpr std::size_t rungIdx(RecoveryRung rung) {
  return static_cast<std::size_t>(rung);
}

/// One XD1 blade plus a bitstream library over its floorplan, with the
/// fault plan / recovery policy injected through NodeConfig exactly as
/// runtime::runScenario does it.
struct Blade {
  explicit Blade(xd1::NodeConfig config = {})
      : node(sim, std::move(config)),
        library(node.floorplan(),
                {{7, "seven", 1.0}, {9, "nine", 1.0}}) {}

  /// Runs one coroutine to completion.
  template <typename Coro>
  void run(Coro&& coro) {
    sim.spawn(std::forward<Coro>(coro));
    sim.run();
  }

  /// Loads `module` into PRR `prr` from its module partial, with the
  /// full-PRR reload and full-device rungs as fallbacks when `withLadder`.
  sim::Process load(std::size_t prr, bitstream::ModuleId module,
                    bool withLadder) {
    RecoveryStreams fallbacks;
    if (withLadder) {
      fallbacks.fullPrr = &library.prrReload(prr, module);
      fallbacks.fullDevice = &library.full();
    }
    return node.manager().loadModule(prr, module,
                                     library.modulePartial(prr, module),
                                     fallbacks);
  }

  sim::Simulator sim;
  xd1::Node node;
  bitstream::Library library;
};

xd1::NodeConfig chaosConfig(const fault::Plan& plan,
                            const config::RecoveryPolicy& policy) {
  xd1::NodeConfig config;
  config.faults = plan;
  config.recovery = policy;
  return config;
}

TEST(FaultRecoveryTest, DisabledPolicyIsAPlainLoadWithZeroAccounting) {
  Blade blade;
  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/false);
  };
  blade.run(script());
  EXPECT_EQ(blade.node.manager().loadedModule(0), 7u);
  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.requests, 0u);
  EXPECT_EQ(stats.attempts, 0u);
  EXPECT_EQ(stats.degradedTo, RecoveryRung::kNone);
}

TEST(FaultRecoveryTest, HealthyRecoveringRunMatchesPlainSimTime) {
  // Zero-overhead-when-healthy: recovery enabled with kOnFault verify and
  // no faults must finish at the exact same simulated instant as the
  // recovery-disabled blade running the identical sequence.
  Blade plain;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.verify = VerifyMode::kOnFault;
  Blade recovering{chaosConfig(fault::Plan{}, policy)};

  auto script = [](Blade& blade) -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/true);
    co_await blade.load(1, 9, /*withLadder=*/true);
  };
  plain.run(script(plain));
  recovering.run(script(recovering));

  EXPECT_EQ(recovering.sim.now(), plain.sim.now());
  const config::RecoveryStats& stats =
      recovering.node.manager().recoveryStats();
  EXPECT_EQ(stats.requests, 3u);  // one full configure + two module loads
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.verifications, 0u);  // kOnFault saw no upsets
  EXPECT_EQ(stats.backoffTime, util::Time::zero());
}

TEST(FaultRecoveryTest, IcapAbortIsRetriedWithExponentialBackoff) {
  // Fixed period 2: ICAP loads 2, 4, 6... abort. The first module load
  // succeeds outright; the second absorbs one abort and lands on retry.
  fault::Plan plan;
  plan.arrival = fault::Arrival::kFixedPeriod;
  plan.fixedPeriod = 2;
  plan.icapAbortRate = 1.0;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.verify = VerifyMode::kOff;
  Blade blade{chaosConfig(plan, policy)};

  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/false);  // ICAP #1: ok
    co_await blade.load(1, 9, /*withLadder=*/false);  // #2 abort, #3 ok
  };
  blade.run(script());

  EXPECT_EQ(blade.node.manager().loadedModule(1), 9u);
  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.attempts, 4u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.faultsAbsorbed, 1u);
  EXPECT_EQ(stats.backoffTime, policy.backoffBase);  // first retry: base pause
  EXPECT_EQ(stats.landedOnRung[rungIdx(RecoveryRung::kModulePartial)], 2u);
  EXPECT_EQ(stats.degradedTo, RecoveryRung::kModulePartial);
  ASSERT_NE(blade.node.injector(), nullptr);
  EXPECT_EQ(blade.node.injector()->injected(fault::FaultKind::kIcapAbort), 1u);
}

TEST(FaultRecoveryTest, ExhaustedRetriesWithoutLadderThrowFaultError) {
  fault::Plan plan;
  plan.arrival = fault::Arrival::kFixedPeriod;
  plan.fixedPeriod = 1;  // every ICAP load aborts
  plan.icapAbortRate = 1.0;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 1;
  policy.ladder = false;
  policy.verify = VerifyMode::kOff;
  Blade blade{chaosConfig(plan, policy)};

  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/false);
  };
  blade.sim.spawn(script());
  EXPECT_THROW(blade.sim.run(), util::FaultError);

  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.attempts, 3u);        // full configure + 2 module attempts
  EXPECT_EQ(stats.faultsAbsorbed, 2u);  // both module attempts aborted
  EXPECT_EQ(stats.escalations, 0u);
  EXPECT_EQ(stats.degradedTo, RecoveryRung::kNone);  // never landed
}

TEST(FaultRecoveryTest, LadderEscalatesPastAFailingRung) {
  // Burn ICAP load #1 with a load that has no fallback rungs so the second
  // request's first attempt is ICAP #2 (aborts under fixed period 2); with
  // zero retries the module rung fails and the ladder lands on the full-PRR
  // reload (#3).
  fault::Plan plan;
  plan.arrival = fault::Arrival::kFixedPeriod;
  plan.fixedPeriod = 2;
  plan.icapAbortRate = 1.0;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.maxRetries = 0;
  policy.verify = VerifyMode::kOff;
  Blade blade{chaosConfig(plan, policy)};

  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.node.manager().loadModule(
        0, 7, blade.library.modulePartial(0, 7));  // ICAP #1: ok
    co_await blade.load(1, 9, /*withLadder=*/true);
  };
  blade.run(script());

  EXPECT_EQ(blade.node.manager().loadedModule(1), 9u);
  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.escalations, 1u);
  EXPECT_EQ(stats.faultsAbsorbed, 1u);
  EXPECT_EQ(stats.landedOnRung[rungIdx(RecoveryRung::kFullPrrReload)], 1u);
  EXPECT_EQ(stats.degradedTo, RecoveryRung::kFullPrrReload);
  EXPECT_EQ(stats.fullDeviceFallbacks, 0u);
}

TEST(FaultRecoveryTest, VerifyComparesBytesNotCrcs) {
  // XOR the reflected CRC-32 generator (x^32 + ... + 1, LSB first) into one
  // frame while the verify readback runs: 15 bit flips that leave the
  // frame's CRC-32 unchanged. Only a byte compare sees the corruption.
  constexpr std::uint64_t kGenerator = 0x1DB710641;
  constexpr std::uint32_t kBitOffset = 5;

  // The load's end instant, from a recovery-free blade (a healthy policy
  // load takes the same simulated time).
  auto script = [](Blade& blade) -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/false);
  };
  Blade reference;
  reference.run(script(reference));
  const util::Time loaded = reference.sim.now();

  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.verify = VerifyMode::kAlways;
  Blade blade{chaosConfig(fault::Plan{}, policy)};
  const bitstream::Bitstream& golden = blade.library.modulePartial(0, 7);
  const std::uint32_t frame = golden.header().firstFrame;
  config::ConfigMemory& memory = blade.node.configMemory();
  std::uint32_t crcBefore = 0;
  std::uint32_t crcAfter = 0;
  auto strike = [&]() -> sim::Process {
    co_await blade.sim.delay(loaded + util::Time::picoseconds(1));
    crcBefore = util::Crc32::of(memory.frameContent(frame));
    for (std::uint32_t bit = 0; bit < 33; ++bit) {
      if (((kGenerator >> bit) & 1u) == 0) continue;
      const std::uint32_t at = kBitOffset + bit;
      memory.injectUpset(frame, at / 8,
                         static_cast<std::uint8_t>(1u << (at % 8)));
    }
    crcAfter = util::Crc32::of(memory.frameContent(frame));
  };
  blade.sim.spawn(strike());
  blade.run(script(blade));

  EXPECT_EQ(memory.upsetsInjected(), 15u);
  EXPECT_EQ(crcAfter, crcBefore);
  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.verifications, 1u);
  EXPECT_EQ(stats.verifyFailures, 1u);
  EXPECT_EQ(stats.frameRepairs, 1u);
  EXPECT_EQ(blade.node.manager().loadedModule(0), 7u);
  EXPECT_TRUE(config::verifyRegion(memory, golden).empty());
}

TEST(FaultRecoveryTest, WordFlipsAreVerifiedAndRepairedFrameGranular) {
  // ~23k words per dual-PRR partial at 1e-3/word => ~23 expected flips per
  // load; a whole-stream retry would essentially never come back clean, so
  // a converging run proves the repair loop is frame-granular.
  fault::Plan plan;
  plan.seed = 2409;
  plan.wordFlipRate = 1e-3;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.verify = VerifyMode::kOnFault;
  Blade blade{chaosConfig(plan, policy)};

  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.load(0, 7, /*withLadder=*/true);
  };
  blade.run(script());

  EXPECT_EQ(blade.node.manager().loadedModule(0), 7u);
  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_GE(stats.verifications, 1u);
  EXPECT_GE(stats.verifyFailures, 1u);
  EXPECT_GE(stats.frameRepairs, 1u);
  EXPECT_GT(stats.verifyTime, util::Time::zero());
  EXPECT_GT(stats.repairTime, util::Time::zero());
  // The landed region really is clean: readback against the golden stream.
  EXPECT_TRUE(config::verifyRegion(blade.node.configMemory(),
                                   blade.library.modulePartial(0, 7))
                  .empty());
  ASSERT_NE(blade.node.injector(), nullptr);
  EXPECT_GE(blade.node.injector()->injected(fault::FaultKind::kWordFlip), 1u);
}

TEST(FaultRecoveryTest, TransientApiRejectIsAbsorbedByFullConfigure) {
  // Fixed period 2 on the vendor API: the second full configure is rejected
  // transiently and succeeds on its retry.
  fault::Plan plan;
  plan.arrival = fault::Arrival::kFixedPeriod;
  plan.fixedPeriod = 2;
  plan.apiRejectRate = 1.0;
  config::RecoveryPolicy policy;
  policy.enabled = true;
  policy.verify = VerifyMode::kOff;
  Blade blade{chaosConfig(plan, policy)};

  auto script = [&]() -> sim::Process {
    co_await blade.node.manager().fullConfigure(blade.library.full());
    co_await blade.node.manager().fullConfigure(blade.library.full());
  };
  blade.run(script());

  const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.attempts, 3u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.faultsAbsorbed, 1u);
  EXPECT_EQ(blade.node.vendorApi().transientFaults(), 1u);
}

TEST(FaultRecoveryTest, DeterministicChaosRunsAreByteIdenticalPerSeed) {
  // Same plan + seed => identical counters and identical final sim time;
  // a different seed moves the Poisson draws.
  auto runOnce = [](std::uint64_t seed) {
    fault::Plan plan;
    plan.seed = seed;
    plan.wordFlipRate = 1e-3;
    plan.icapAbortRate = 0.2;
    config::RecoveryPolicy policy;
    policy.enabled = true;
    Blade blade{chaosConfig(plan, policy)};
    auto script = [&]() -> sim::Process {
      co_await blade.node.manager().fullConfigure(blade.library.full());
      co_await blade.load(0, 7, /*withLadder=*/true);
      co_await blade.load(1, 9, /*withLadder=*/true);
    };
    blade.run(script());
    const config::RecoveryStats& stats = blade.node.manager().recoveryStats();
    return std::tuple{blade.sim.now(), stats.attempts, stats.frameRepairs,
                      blade.node.injector()->totalInjected()};
  };
  EXPECT_EQ(runOnce(7), runOnce(7));
  EXPECT_NE(runOnce(7), runOnce(8));
}

}  // namespace
}  // namespace prtr
