// Closed-form oracle for the ICAP pipeline (paper section 4.1): an
// uncontended partial load of `wire` bytes takes exactly the host link's
// occupancy for the first chunk plus the drain FSM's time for every chunk,
// each chunk rounded on its own:
//
//   hostLink.occupancy(first chunk)
//     + floor(wire / chunk) * drainTime(chunk) + drainTime(wire mod chunk)
//
// The producer fills the 16 KiB buffer ~70x faster than the FSM drains it,
// so after the first chunk the drain never waits. A single
// ceil(bytes / 4) * 13-cycle rounding over the whole stream is not exact.
#include <gtest/gtest.h>

#include <exception>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "bitstream/library.hpp"
#include "bitstream/parser.hpp"
#include "fleet/calibrate.hpp"
#include "hprc/chassis.hpp"
#include "model/calibration.hpp"
#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/multitask.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/scenario.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"
#include "tasks/workload.hpp"
#include "util/error.hpp"
#include "xd1/node.hpp"

namespace prtr::runtime {

// Prints a census in gtest failure messages.
std::ostream& operator<<(std::ostream& os, const LoadCensus& c) {
  return os << "{in " << c.contendedIn << ", out " << c.contendedOut
            << ", aborted " << c.abortedLoads << '}';
}

}  // namespace prtr::runtime

namespace prtr {
namespace {

using util::Bytes;
using util::Time;

/// The closed-form duration of an uncontended load of `wire` bytes.
Time oracle(const sim::SimplexLink& hostLink,
            const config::IcapController& icap, Bytes wire) {
  const std::uint64_t chunk = icap.timing().chunkBytes.count();
  const std::uint64_t fullChunks = wire.count() / chunk;
  return hostLink.occupancy(Bytes{std::min(wire.count(), chunk)}) +
         icap.drainTime(Bytes{chunk}) * static_cast<std::int64_t>(fullChunks) +
         icap.drainTime(Bytes{wire.count() % chunk});
}

sim::Process timedLoad(sim::Simulator& sim, config::IcapController& icap,
                       const bitstream::Bitstream& stream, Time& took) {
  const Time start = sim.now();
  co_await icap.load(stream);
  took = sim.now() - start;
}

struct LoadCase {
  xd1::Layout layout;
  bool mfw;
};

std::string loadCaseName(const ::testing::TestParamInfo<LoadCase>& info) {
  const char* layout = info.param.layout == xd1::Layout::kSinglePrr ? "single"
                       : info.param.layout == xd1::Layout::kDualPrr ? "dual"
                                                                    : "quad";
  return std::string{layout} + (info.param.mfw ? "_mfw" : "_raw");
}

class IcapOracleLoads : public ::testing::TestWithParam<LoadCase> {};

TEST_P(IcapOracleLoads, EveryUncontendedLoadMatchesTheClosedFormToThePs) {
  sim::Simulator sim;
  xd1::NodeConfig config;
  config.layout = GetParam().layout;
  config.icapTiming.multiFrameWrite = GetParam().mfw;
  xd1::Node node{sim, config};
  // Occupancies below 1 leave empty frames, so wire sizes vary across
  // modules (and shrink further under MFW) and rarely fill a last chunk.
  bitstream::Library library{
      node.floorplan(), {{1, "full", 1.0}, {2, "half", 0.5}, {3, "sparse", 0.13}}};
  node.configMemory().applyFull(
      *bitstream::parse(library.full(), node.device()));
  config::IcapController& icap = node.icap();

  std::size_t loads = 0;
  for (std::size_t prr = 0; prr < node.floorplan().prrCount(); ++prr) {
    for (const auto& module : library.modules()) {
      const bitstream::Bitstream& stream = library.modulePartial(prr, module.id);
      const Bytes wire = icap.wireBytes(stream);
      if (GetParam().mfw && module.occupancy < 1.0) {
        EXPECT_LT(wire, stream.size()) << "MFW should compress empty frames";
      }
      Time took;
      sim.spawn(timedLoad(sim, icap, stream, took));
      sim.run();
      EXPECT_EQ(took, oracle(node.linkIn(), icap, wire))
          << "prr " << prr << ", module " << module.name << ", wire "
          << wire.count() << " B";
      ++loads;
    }
  }
  EXPECT_EQ(icap.loadsPerformed(), loads);
  EXPECT_EQ(node.linkIn().contendedTransfers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, IcapOracleLoads,
    ::testing::Values(LoadCase{xd1::Layout::kSinglePrr, false},
                      LoadCase{xd1::Layout::kSinglePrr, true},
                      LoadCase{xd1::Layout::kDualPrr, false},
                      LoadCase{xd1::Layout::kDualPrr, true},
                      LoadCase{xd1::Layout::kQuadPrr, false},
                      LoadCase{xd1::Layout::kQuadPrr, true}),
    loadCaseName);

/// Like timedLoad, for a load a fault hook aborts: the pipeline still
/// streams the truncated wire bytes before load() throws.
sim::Process timedAbortedLoad(sim::Simulator& sim, config::IcapController& icap,
                              const bitstream::Bitstream& stream, Time& took) {
  const Time start = sim.now();
  try {
    co_await icap.load(stream);
  } catch (const util::ConfigError&) {
  }
  took = sim.now() - start;
}

TEST(IcapOracle, AWholeNumberOfChunksMatchesTheClosedForm) {
  // With every chunk full there is no short last chunk to drain. Partials
  // are 68 + 1064 x frames bytes, never a multiple of 2 KiB, so a fault hook
  // truncates each load to a whole number of chunks instead.
  sim::Simulator sim;
  xd1::Node node{sim};
  bitstream::Library library{node.floorplan(), {{1, "full", 1.0}}};
  node.configMemory().applyFull(
      *bitstream::parse(library.full(), node.device()));
  config::IcapController& icap = node.icap();
  const bitstream::Bitstream& stream = library.modulePartial(0, 1);
  const std::uint64_t chunk = icap.timing().chunkBytes.count();
  std::uint64_t streamed = 0;
  for (const std::uint64_t chunks :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{9},
        stream.size().count() / chunk}) {
    const Bytes wire{chunks * chunk};
    // The half byte keeps the truncating cast exact.
    const double fraction = (static_cast<double>(wire.count()) + 0.5) /
                            static_cast<double>(stream.size().count());
    icap.setFaultHook([fraction](const bitstream::Bitstream&) {
      return std::optional<config::IcapFault>{config::IcapFault{
          fraction, std::make_exception_ptr(util::ConfigError{"truncated"})}};
    });
    Time took;
    sim.spawn(timedAbortedLoad(sim, icap, stream, took));
    sim.run();
    EXPECT_EQ(took, oracle(node.linkIn(), icap, wire)) << chunks << " chunks";
    streamed += wire.count();
  }
  EXPECT_EQ(icap.abortedLoads(), 4u);
  EXPECT_EQ(icap.bytesWritten(), streamed);  // each load streamed `wire`
  EXPECT_EQ(node.linkIn().contendedTransfers(), 0u);
}

TEST(IcapOracle, ChunkRoundingIsPerChunkNotPerStream) {
  // The oracle's per-chunk rounding is load-bearing: a whole-stream
  // ceil(bytes / 4) * 13-cycle figure drifts from it by a few ps per chunk.
  sim::Simulator sim;
  xd1::Node node{sim};
  const config::IcapController& icap = node.icap();
  const Bytes wire{2048 * 197 + 1234};
  const Time perChunk = icap.drainTime(Bytes{2048}) * 197 +
                        icap.drainTime(Bytes{1234});
  EXPECT_NE(perChunk, icap.drainTime(wire));
}

/// Every `partial(...)` span of one Fig-9(b) point (dual PRR, H = 0 via
/// forceMiss, queue look-ahead, 120 calls) lasts exactly the oracle's time
/// for its stream, and no HT-in transfer on that point took the contended
/// path. That path, alone, can interleave chunks with other traffic.
TEST(IcapOracle, EveryPartialSpanOfAFig9PointMatchesTheClosedForm) {
  const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  sim::Simulator sim;
  xd1::Node node{sim};
  const model::ConfigTimes times = model::configTimes(node);
  const tasks::Workload workload = tasks::makeRoundRobinWorkload(
      registry, 120,
      model::bytesForTaskTime(node, registry.byName("median"),
                              times.full(model::ConfigTimeBasis::kMeasured)));
  bitstream::Library library{
      node.floorplan(),
      registry.moduleSpecs(node.floorplan().prr(0).resources(node.device()))};
  std::vector<bitstream::ModuleId> sequence;
  for (const tasks::TaskCall& call : workload.calls) {
    sequence.push_back(registry.at(call.functionIndex).id);
  }
  const auto cache = runtime::makeCache(runtime::CachePolicy::kLru,
                                        node.floorplan().prrCount(), sequence);
  const auto prefetcher = runtime::makePrefetcher(
      runtime::PrefetcherKind::kNone, Time::zero(), sequence);
  sim::Timeline timeline;
  runtime::ExecutorOptions options;
  options.forceMiss = true;
  options.prepare = runtime::PrepareSource::kQueue;
  options.timeline = &timeline;
  runtime::PrtrExecutor executor{node,   registry,    library,
                                 *cache, *prefetcher, options};
  (void)executor.run(workload);

  std::size_t checked = 0;
  for (const sim::NamedSpan& span : timeline.materialize()) {
    if (span.label.rfind("partial(", 0) != 0) continue;
    const std::string name =
        span.label.substr(8, span.label.size() - 9);  // strip "partial(" ")"
    const tasks::HwFunction& fn = registry.byName(name);
    // The PRRs are identical, so every PRR's stream for `fn` predicts the
    // same time; the span must equal it.
    const Time expected = oracle(
        node.linkIn(), node.icap(),
        node.icap().wireBytes(library.modulePartial(0, fn.id)));
    for (std::size_t prr = 1; prr < node.floorplan().prrCount(); ++prr) {
      ASSERT_EQ(oracle(node.linkIn(), node.icap(),
                       node.icap().wireBytes(library.modulePartial(prr, fn.id))),
                expected);
    }
    EXPECT_EQ(span.end - span.start, expected)
        << span.label << " at " << span.start.ps() << " ps";
    ++checked;
  }
  EXPECT_EQ(checked, 120u);
  EXPECT_EQ(node.linkIn().contendedTransfers(), 0u);
  EXPECT_GT(node.linkIn().totalTransfers(), 0u);
}

// The load census of the other paths a config load takes (runtime::
// LoadCensus): how many transfers left the uncontended fast path the
// closed form covers, and how many loads a fault hook aborted. Each count
// is pinned, so a change to how often those paths run shows here.

runtime::LoadCensus census(std::uint64_t in, std::uint64_t out,
                           std::uint64_t aborted) {
  return runtime::LoadCensus{
      .contendedIn = in, .contendedOut = out, .abortedLoads = aborted};
}

std::uint64_t icapLoads(const obs::MetricsSnapshot& metrics) {
  return metrics.counterOr("config.icap.loads");
}

std::uint64_t icapBytes(const runtime::ExecutionReport& report) {
  return report.metrics.counterOr("config.icap.bytes_written");
}

// The scenario behind Fig. 5's dual-PRR curves, 12 calls of 1 MB: the
// estimated basis (X_PRTR = 0.17) is what prtr-bench fig5 --trace runs,
// and it configures through the external port, never the ICAP; the
// measured basis (X_PRTR = 0.012) loads through the ICAP on every call.
TEST(IcapLoadCensus, Fig5Scenarios) {
  const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  const tasks::Workload workload =
      tasks::makeRoundRobinWorkload(registry, 12, Bytes{1'000'000});
  for (const auto basis : {model::ConfigTimeBasis::kEstimated,
                           model::ConfigTimeBasis::kMeasured}) {
    SCOPED_TRACE(toString(basis));
    runtime::ScenarioOptions options;
    options.layout = xd1::Layout::kDualPrr;
    options.basis = basis;
    options.verify = true;
    const runtime::ScenarioResult result =
        runtime::runScenario(registry, workload, options);
    EXPECT_EQ(result.frtr.census, census(0, 0, 0));
    EXPECT_EQ(result.prtr.census, census(0, 0, 0));
    EXPECT_EQ(icapLoads(result.prtr.metrics),
              basis == model::ConfigTimeBasis::kMeasured ? 12u : 0u);
  }
}

// prtr-bench multitask: four apps of 25 calls x 10 MB on one blade, at each
// mean inter-arrival time and layout the bench sweeps. Concurrent apps
// share the links, so this is the one path here that takes the contended
// transfer path, on both links.
TEST(IcapLoadCensus, MultitaskSweep) {
  struct Point {
    std::int64_t msArrival;
    xd1::Layout layout;
    runtime::LoadCensus census;
    std::uint64_t icapLoads;
  };
  const Point points[] = {
      {200, xd1::Layout::kDualPrr, census(7, 3, 0), 42},
      {200, xd1::Layout::kQuadPrr, census(7, 5, 0), 4},
      {60, xd1::Layout::kDualPrr, census(15, 13, 0), 40},
      {60, xd1::Layout::kQuadPrr, census(6, 52, 0), 4},
      {20, xd1::Layout::kDualPrr, census(15, 13, 0), 40},
      {20, xd1::Layout::kQuadPrr, census(7, 66, 0), 4},
      {5, xd1::Layout::kDualPrr, census(15, 13, 0), 40},
      {5, xd1::Layout::kQuadPrr, census(7, 66, 0), 4}};
  const tasks::FunctionRegistry registry = tasks::makeExtendedFunctions();
  for (const Point& point : points) {
    SCOPED_TRACE(std::to_string(point.msArrival) + " ms, " +
                 toString(point.layout));
    std::vector<runtime::AppSpec> apps;
    for (std::size_t a = 0; a < 4; ++a) {
      runtime::AppSpec app;
      app.name = "app" + std::to_string(a);
      app.meanInterArrival = Time::milliseconds(point.msArrival);
      app.workload.calls.assign(
          25, tasks::TaskCall{a % registry.size(), Bytes{10'000'000}});
      apps.push_back(std::move(app));
    }
    runtime::MultitaskOptions options;
    options.layout = point.layout;
    const runtime::MultitaskReport report =
        runtime::runMultitask(registry, apps, options);
    EXPECT_EQ(report.census, point.census);
    EXPECT_EQ(icapLoads(report.metrics), point.icapLoads);
  }
}

// fleet::calibrateBladeProfile at the steady.fleet payload (1 MiB): per
// paper function, a resident run at the payload and at half of it, and a
// forced-miss run, 8 calls each, on PRTR-only blade options with faults
// and recovery cleared. One call at a time on an idle blade: no transfer
// is ever contended, and the miss run loads through the ICAP per call.
TEST(IcapLoadCensus, FleetCalibrationRuns) {
  const tasks::FunctionRegistry registry = tasks::makePaperFunctions();
  const Bytes payload = Bytes::kibi(1024);
  runtime::ScenarioOptions blade =
      hprc::bladeScenarioOptions(runtime::ScenarioOptions{}, 0);
  blade.faults = fault::Plan{};
  blade.recovery = runtime::RecoveryPolicy{};
  const fleet::BladeProfile profile =
      fleet::calibrateBladeProfile(registry, runtime::ScenarioOptions{}, payload);
  for (std::size_t fn = 0; fn < registry.size(); ++fn) {
    SCOPED_TRACE(registry.at(fn).name);
    const auto run = [&](Bytes bytes, bool forceMiss) {
      tasks::Workload workload;
      workload.calls.assign(8, tasks::TaskCall{fn, bytes});
      runtime::ScenarioOptions options = blade;
      options.forceMiss = forceMiss;
      return runtime::runScenario(registry, workload, options).prtr;
    };
    const runtime::ExecutionReport resident = run(payload, false);
    const runtime::ExecutionReport half = run(Bytes{payload.count() / 2}, false);
    const runtime::ExecutionReport miss = run(payload, true);
    // The replica is the calibration's own run: it prices the same reload.
    EXPECT_EQ((icapBytes(miss) - icapBytes(resident)) / 4 / 8,
              profile.tasks[fn].configWords);
    EXPECT_EQ(resident.census, census(0, 0, 0));
    EXPECT_EQ(half.census, census(0, 0, 0));
    EXPECT_EQ(miss.census, census(0, 0, 0));
    EXPECT_EQ(icapLoads(resident.metrics), 1u);
    EXPECT_EQ(icapLoads(half.metrics), 1u);
    EXPECT_EQ(icapLoads(miss.metrics), 8u);
  }
}

}  // namespace
}  // namespace prtr
