// Tests for the FRTR and PRTR executors against hand-computed timing and
// the analytical model.
#include <gtest/gtest.h>

#include "bitstream/library.hpp"
#include "model/calibration.hpp"
#include "model/model.hpp"
#include "runtime/dynamic_executor.hpp"
#include "runtime/executor.hpp"
#include "runtime/hwsw.hpp"
#include "runtime/multitask.hpp"
#include "runtime/scenario.hpp"
#include "tasks/hwfunction.hpp"
#include "tasks/workload.hpp"
#include "util/stats.hpp"
#include "xd1/node.hpp"

namespace prtr::runtime {
namespace {

using model::ConfigTimeBasis;

struct Harness {
  sim::Simulator sim;
  xd1::Node node;
  tasks::FunctionRegistry registry;
  bitstream::Library library;

  explicit Harness(xd1::Layout layout = xd1::Layout::kDualPrr)
      : node(sim,
             [&] {
               xd1::NodeConfig c;
               c.layout = layout;
               return c;
             }()),
        registry(tasks::makePaperFunctions()),
        library(node.floorplan(),
                registry.moduleSpecs(
                    node.floorplan().prr(0).resources(node.device()))) {}
};

TEST(FrtrExecutorTest, TotalTimeMatchesEquation1) {
  Harness h;
  ExecutorOptions opts;
  opts.basis = ConfigTimeBasis::kMeasured;
  opts.tControl = util::Time::microseconds(10);
  FrtrExecutor executor{h.node, h.registry, h.library, opts};

  const util::Bytes data{10'000'000};
  const auto workload = tasks::makeRoundRobinWorkload(h.registry, 12, data);
  const ExecutionReport report = executor.run(workload);

  EXPECT_EQ(report.calls, 12u);
  EXPECT_EQ(report.configurations, 12u);  // one full config per call

  model::AbsoluteParams abs;
  abs.nCalls = 12;
  const model::ConfigTimes times = model::configTimes(h.node);
  abs.tFrtr = times.fullMeasured;
  abs.tPrtr = times.partialMeasured;
  abs.tTask = model::taskTime(h.node, h.registry.at(0), data);
  abs.tControl = opts.tControl;
  const double expected = model::frtrTotalTime(abs).toSeconds();
  EXPECT_NEAR(report.total.toSeconds(), expected, expected * 0.01);
}

TEST(FrtrExecutorTest, EstimatedBasisUsesRawSelectMap) {
  Harness h;
  ExecutorOptions opts;
  opts.basis = ConfigTimeBasis::kEstimated;
  opts.tControl = util::Time::zero();
  FrtrExecutor executor{h.node, h.registry, h.library, opts};
  const auto workload =
      tasks::makeRoundRobinWorkload(h.registry, 3, util::Bytes{1000});
  const ExecutionReport report = executor.run(workload);
  // Dominated by 3 x 36.09 ms estimated full configurations.
  EXPECT_NEAR(report.total.toMilliseconds(), 3 * 36.09, 1.0);
}

/// The serial executors whose breakdown must tile the simulated total.
enum class Serial : std::uint8_t { kFrtr, kPrtr, kHwSw, kDynamic };

/// One run's report plus the terms only that executor accounts: every
/// picosecond of `total` is in exactly one category.
struct Tiling {
  ExecutionReport report;
  util::Time ownTerms;
};

Tiling runSerial(Serial which) {
  Harness h;
  const auto workload =
      tasks::makeRoundRobinWorkload(h.registry, 12, util::Bytes{1'000'000});
  switch (which) {
    case Serial::kFrtr: {
      FrtrExecutor executor{h.node, h.registry, h.library, ExecutorOptions{}};
      return {executor.run(workload), util::Time::zero()};
    }
    case Serial::kPrtr: {
      ExecutorOptions opts;
      opts.prepare = PrepareSource::kNone;
      LruCache cache{2};
      MarkovPrefetcher prefetcher{util::Time::microseconds(3)};
      PrtrExecutor executor{h.node, h.registry, h.library,
                            cache, prefetcher, opts};
      const ExecutionReport r = executor.run(workload);
      return {r, r.initialConfig + r.decisionTime};
    }
    case Serial::kHwSw: {
      // Thumbnails stay on the CPU, full frames go to the fabric.
      tasks::Workload mixed{"mixed", {}};
      for (std::size_t i = 0; i < 12; ++i) {
        mixed.calls.push_back(tasks::TaskCall{
            i % 3, util::Bytes{i % 2 ? 40'000'000ull : 4'096ull}});
      }
      LruCache cache{2};
      HwSwExecutor executor{h.node, h.registry, h.library, cache, {}};
      const HwSwReport r = executor.run(mixed);
      EXPECT_GT(r.hardwareCalls, 0u);
      EXPECT_GT(r.softwareCalls, 0u);
      return {r.base, r.base.initialConfig + r.softwareTime};
    }
    case Serial::kDynamic: {
      // A 12-column range fragments under this mix, so relocation moves
      // (defragTime) join the tiling.
      const auto extended = tasks::makeExtendedFunctions();
      DynamicOptions options;
      options.columnCount = 12;
      tasks::Workload frag{"frag", {}};
      const std::size_t seq[] = {4, 1, 5, 0, 4, 2, 0, 7, 3, 1, 0, 6};
      for (int round = 0; round < 4; ++round) {
        for (const std::size_t f : seq) {
          frag.calls.push_back(tasks::TaskCall{f, util::Bytes{300'000}});
        }
      }
      DynamicPrtrExecutor executor{h.node, extended, options};
      const DynamicReport r = executor.run(frag);
      EXPECT_GT(r.defragMoves, 0u);
      return {r.base, r.base.initialConfig + r.defragTime};
    }
  }
  return {};
}

class BreakdownTiling : public ::testing::TestWithParam<Serial> {};

TEST_P(BreakdownTiling, CategoriesSumToTotalToThePicosecond) {
  const Tiling t = runSerial(GetParam());
  const ExecutionReport& r = t.report;
  ASSERT_GT(r.calls, 0u);
  const util::Time parts = r.configStall + r.controlTime + r.inputTime +
                           r.computeTime + r.outputTime + t.ownTerms;
  EXPECT_EQ(parts.ps(), r.total.ps()) << r.toString();
  if (GetParam() == Serial::kFrtr) {
    EXPECT_GT(r.configOverheadFraction(), 0.9);  // FRTR overhead dominates
  }
}

INSTANTIATE_TEST_SUITE_P(SerialExecutors, BreakdownTiling,
                         ::testing::Values(Serial::kFrtr, Serial::kPrtr,
                                           Serial::kHwSw, Serial::kDynamic),
                         [](const auto& paramInfo) {
                           switch (paramInfo.param) {
                             case Serial::kFrtr: return "frtr";
                             case Serial::kPrtr: return "prtr";
                             case Serial::kHwSw: return "hwsw";
                             case Serial::kDynamic: return "dynamic";
                           }
                           return "unknown";
                         });

/// FNV-1a over a report's text: a byte-identity pin.
std::uint64_t digest(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

// No committed baseline covers the HW/SW, dynamic and multitask executors,
// so these pin their full report text and metrics, recorded before their
// call bodies were folded into runCall.

TEST(ExecutorPinTest, HwSwPoliciesArePinned) {
  // The `prtr-bench hwsw` 1 MB point.
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 30, util::Bytes{1'000'000});
  const std::pair<Partitioning, std::uint64_t> pins[] = {
      {Partitioning::kAlwaysHardware, 0xc1e303ed29ab37b1ULL},
      {Partitioning::kAlwaysSoftware, 0x1529401feaa211c7ULL},
      {Partitioning::kStaticThreshold, 0xb2f1a8123c349407ULL},
      {Partitioning::kAdaptive, 0xdd334e2ffd1f5321ULL},
  };
  for (const auto& [policy, pin] : pins) {
    sim::Simulator sim;
    xd1::Node node{sim};
    bitstream::Library library{
        node.floorplan(),
        registry.moduleSpecs(node.floorplan().prr(0).resources(node.device()))};
    LruCache cache{2};
    HwSwOptions options;
    options.policy = policy;
    HwSwExecutor executor{node, registry, library, cache, options};
    const HwSwReport r = executor.run(workload);
    const std::string text = r.base.toString() + r.base.metrics.toString();
    EXPECT_EQ(digest(text), pin) << toString(policy) << "\n" << text;
  }
}

TEST(ExecutorPinTest, DynamicRoundRobinIsPinned) {
  sim::Simulator sim;
  xd1::Node node{sim};
  const auto registry = tasks::makeExtendedFunctions();
  DynamicPrtrExecutor executor{node, registry};
  const DynamicReport r = executor.run(
      tasks::makeRoundRobinWorkload(registry, 40, util::Bytes{750'000}));
  const std::string text = r.base.toString() + r.base.metrics.toString();
  EXPECT_EQ(digest(text), 0xa0d767fea8d5c050ULL) << text;
}

TEST(ExecutorPinTest, MultitaskIsPinned) {
  const auto registry = tasks::makePaperFunctions();
  const auto app = [](const std::string& name, std::size_t functionIndex) {
    AppSpec spec{name, {name, {}}, util::Time::milliseconds(2)};
    spec.workload.calls.assign(
        10, tasks::TaskCall{functionIndex, util::Bytes{3'000'000}});
    return spec;
  };
  MultitaskOptions options;
  options.seed = 99;
  const MultitaskReport r =
      runMultitask(registry, {app("a", 0), app("b", 1)}, options);
  const std::string text = r.toString() + r.metrics.toString();
  EXPECT_EQ(digest(text), 0x706c4e48379e52beULL) << text;
}

// A faulted, recovering scenario (pins recorded before the run-end scrapes
// wrote their snapshots directly): pins the exact fault.injected.*,
// recovery.* (skip-zero recovery.landed.*, recovery.ladder_depth) and
// cache.<policy>.* key set of the run-end scrape, which no healthy run emits.
TEST(ExecutorPinTest, FaultedScenarioScrapeIsPinned) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 24, util::Bytes{1'000'000});
  const std::pair<bool, std::uint64_t> pins[] = {
      {true, 0x0e17b724f5668233ULL},
      {false, 0xe5c9d0f88a48168fULL},
  };
  for (const auto& [forceMiss, pin] : pins) {
    ScenarioOptions so;
    so.forceMiss = forceMiss;
    so.faults.seed = 24091;
    so.faults.wordFlipRate = 1e-4;
    so.faults.icapAbortRate = 0.01;
    so.faults.apiRejectRate = 0.005;
    so.recovery.enabled = true;
    const ScenarioResult r = runScenario(registry, workload, so);
    const std::string text = r.toString() + r.metrics.toString();
    EXPECT_EQ(digest(text), pin) << "forceMiss=" << forceMiss << "\n" << text;
  }
}

TEST(PrtrExecutorTest, ForceMissMatchesEquation5) {
  // The paper's experimental setting: dual PRR, H = 0, queue look-ahead.
  Harness h;
  ExecutorOptions opts;
  opts.basis = ConfigTimeBasis::kMeasured;
  opts.tControl = util::Time::microseconds(10);
  opts.forceMiss = true;
  opts.prepare = PrepareSource::kQueue;
  LruCache cache{2};
  NonePrefetcher prefetcher;
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  const util::Bytes data{30'000'000};  // X_task ~ 0.1 (mid-range)
  const auto workload = tasks::makeRoundRobinWorkload(h.registry, 50, data);
  const ExecutionReport report = executor.run(workload);

  EXPECT_EQ(report.calls, 50u);
  EXPECT_EQ(report.configurations, 50u);  // always reconfigures
  EXPECT_DOUBLE_EQ(report.hitRatio(), 0.0);

  model::AbsoluteParams abs;
  abs.nCalls = 50;
  const model::ConfigTimes times = model::configTimes(h.node);
  abs.tFrtr = times.fullMeasured;
  abs.tPrtr = times.partialMeasured;
  abs.tTask = model::taskTime(h.node, h.registry.at(0), data);
  abs.tControl = opts.tControl;
  abs.hitRatio = 0.0;
  const double expected = model::prtrTotalTime(abs).toSeconds();
  // The simulator can only overlap configuration with the post-input part
  // of the previous task, so it runs slightly above the model.
  EXPECT_NEAR(report.total.toSeconds(), expected, expected * 0.05);
  EXPECT_GE(report.total.toSeconds(), expected * 0.999);
}

TEST(PrtrExecutorTest, RepeatedModuleHitsWithoutForceMiss) {
  Harness h;
  ExecutorOptions opts;
  opts.forceMiss = false;
  opts.prepare = PrepareSource::kQueue;
  LruCache cache{2};
  NonePrefetcher prefetcher;
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  // 20 calls of the same function: 1 miss then 19 hits.
  tasks::Workload w{"same", {}};
  for (int i = 0; i < 20; ++i) {
    w.calls.push_back(tasks::TaskCall{0, util::Bytes{1'000'000}});
  }
  const ExecutionReport report = executor.run(w);
  EXPECT_EQ(report.configurations, 1u);
  EXPECT_NEAR(report.hitRatio(), 19.0 / 20.0, 1e-12);
}

TEST(PrtrExecutorTest, TwoModulesFitTwoPrrsAfterWarmup) {
  Harness h;
  ExecutorOptions opts;
  opts.forceMiss = false;
  opts.prepare = PrepareSource::kQueue;
  LruCache cache{2};
  NonePrefetcher prefetcher;
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  // Alternating median/sobel: both stay resident after the first two loads.
  tasks::Workload w{"alt", {}};
  for (int i = 0; i < 30; ++i) {
    w.calls.push_back(
        tasks::TaskCall{static_cast<std::size_t>(i % 2), util::Bytes{500'000}});
  }
  const ExecutionReport report = executor.run(w);
  EXPECT_EQ(report.configurations, 2u);
  EXPECT_NEAR(report.hitRatio(), 28.0 / 30.0, 1e-12);
}

TEST(PrtrExecutorTest, ThreeModulesThrashTwoPrrs) {
  Harness h;
  ExecutorOptions opts;
  opts.forceMiss = false;
  opts.prepare = PrepareSource::kQueue;
  LruCache cache{2};
  NonePrefetcher prefetcher;
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  // Round-robin over 3 modules with 2 slots: mostly misses (classic LRU
  // pathological case), but the look-ahead still overlaps the loads.
  const auto w = tasks::makeRoundRobinWorkload(h.registry, 30, util::Bytes{500'000});
  const ExecutionReport report = executor.run(w);
  EXPECT_GT(report.configurations, 25u);
}

TEST(PrtrExecutorTest, SinglePrrFallsBackToOnDemand) {
  Harness h{xd1::Layout::kSinglePrr};
  ExecutorOptions opts;
  opts.forceMiss = true;
  opts.prepare = PrepareSource::kQueue;
  LruCache cache{1};
  NonePrefetcher prefetcher;
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  const util::Bytes data{10'000'000};
  const auto w = tasks::makeRoundRobinWorkload(h.registry, 10, data);
  const ExecutionReport report = executor.run(w);
  EXPECT_EQ(report.configurations, 10u);
  // With one PRR nothing can overlap: config stall is roughly
  // n * T_PRTR(single) = 10 * ~43.5 ms.
  EXPECT_GT(report.configStall.toMilliseconds(), 10 * 43.0);
}

TEST(PrtrExecutorTest, CacheSlotMismatchRejected) {
  Harness h;  // dual PRR
  ExecutorOptions opts;
  LruCache cache{3};
  NonePrefetcher prefetcher;
  EXPECT_THROW(
      (PrtrExecutor{h.node, h.registry, h.library, cache, prefetcher, opts}),
      util::DomainError);
}

TEST(PrtrExecutorTest, MarkovPrefetcherOverlapsCyclicWorkload) {
  // A deterministic 3-cycle over 2 PRRs: every call misses, but a trained
  // Markov predictor knows the next module and overlaps its configuration.
  auto runCycle = [](PrepareSource prepare) {
    Harness h;
    ExecutorOptions opts;
    opts.forceMiss = false;
    opts.prepare = prepare;
    LruCache cache{2};
    MarkovPrefetcher prefetcher{util::Time::zero()};
    PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher,
                          opts};
    const auto w =
        tasks::makeRoundRobinWorkload(h.registry, 120, util::Bytes{8'000'000});
    return executor.run(w);
  };
  const ExecutionReport with = runCycle(PrepareSource::kPrefetcher);
  const ExecutionReport without = runCycle(PrepareSource::kNone);
  EXPECT_GT(with.prefetchIssued, 100u);
  EXPECT_LT(with.prefetchWrong, 5u);  // the cycle is perfectly learnable
  // Overlap shrinks the configuration stall versus on-demand loading.
  EXPECT_LT(with.configStall.toSeconds(), without.configStall.toSeconds());
  EXPECT_LT(with.total.toSeconds(), without.total.toSeconds());
}

TEST(PrtrExecutorTest, MarkovPrefetcherSelfBiasedWorkloadHitsOften) {
  Harness h;
  ExecutorOptions opts;
  opts.forceMiss = false;
  opts.prepare = PrepareSource::kPrefetcher;
  LruCache cache{2};
  MarkovPrefetcher prefetcher{util::Time::zero()};
  PrtrExecutor executor{h.node, h.registry, h.library, cache, prefetcher, opts};

  util::Rng rng{5};
  const auto w =
      tasks::makeMarkovWorkload(h.registry, 200, util::Bytes{500'000}, 0.8, rng);
  const ExecutionReport report = executor.run(w);
  EXPECT_GT(report.hitRatio(), 0.5);  // locality + 2 slots keep modules hot
}

TEST(ScenarioTest, MeasuredSpeedupTracksModel) {
  const auto registry = tasks::makePaperFunctions();
  ScenarioOptions so;
  so.basis = ConfigTimeBasis::kMeasured;
  so.forceMiss = true;
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 60, util::Bytes{50'000'000});
  const ScenarioResult result = runScenario(registry, workload, so);
  EXPECT_GT(result.speedup, 1.0);
  EXPECT_LT(result.modelError, 0.06);
}

TEST(ScenarioTest, TimelineCapturesProfiles) {
  const auto registry = tasks::makePaperFunctions();
  sim::Timeline frtrTl;
  sim::Timeline prtrTl;
  ScenarioOptions so;
  so.forceMiss = true;
  so.hooks.frtrTimeline = &frtrTl;
  so.hooks.timeline = &prtrTl;
  const auto workload =
      tasks::makeRoundRobinWorkload(registry, 4, util::Bytes{20'000'000});
  (void)runScenario(registry, workload, so);
  EXPECT_FALSE(frtrTl.empty());
  EXPECT_FALSE(prtrTl.empty());
  // PRTR used both PRR lanes.
  EXPECT_GT(prtrTl.laneBusy("PRR0").toSeconds(), 0.0);
  EXPECT_GT(prtrTl.laneBusy("PRR1").toSeconds(), 0.0);
}

TEST(ReportTest, MeasuredSpeedupGuardsZero) {
  ExecutionReport a;
  ExecutionReport b;
  a.total = util::Time::milliseconds(100);
  b.total = util::Time::zero();
  EXPECT_THROW((void)measuredSpeedup(a, b), util::DomainError);
  b.total = util::Time::milliseconds(50);
  EXPECT_DOUBLE_EQ(measuredSpeedup(a, b), 2.0);
}

}  // namespace
}  // namespace prtr::runtime
