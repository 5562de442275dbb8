// Micro-benchmarks (google-benchmark): throughput of the load-bearing
// substrate pieces -- the DES kernel, bitstream build/parse, CRC-32, image
// kernels, a steady fleet batch, and a full PRTR scenario end to end.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "bench/options.hpp"
#include "bitstream/builder.hpp"
#include "bitstream/library.hpp"
#include "bitstream/parser.hpp"
#include "config/scrubber.hpp"
#include "fabric/floorplan.hpp"
#include "fleet/fleet.hpp"
#include "runtime/scenario.hpp"
#include "sim/simulator.hpp"
#include "tasks/kernels.hpp"
#include "tasks/workload.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "xd1/node.hpp"

namespace {

using namespace prtr;

sim::Process pingPong(sim::Simulator& sim, std::int64_t hops) {
  for (std::int64_t i = 0; i < hops; ++i) {
    co_await sim.delay(util::Time::nanoseconds(1));
  }
}

void BM_SimKernelEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    sim.spawn(pingPong(sim, state.range(0)));
    sim.run();
    benchmark::DoNotOptimize(sim.eventsProcessed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimKernelEvents)->Arg(1'000)->Arg(100'000);

/// One dual-PRR library partial through IcapController::load per iteration:
/// host link -> 16 KiB BRAM buffer -> ICAP FSM, the per-chunk kernel traffic
/// every H = 0 Fig-9 call is made of. BM_SimKernelEvents' one-event
/// ping-pong cannot see pending-set or per-chunk costs; this can. Items are
/// 2 KiB host chunks; events_per_chunk is kernel events per chunk, and
/// ns_per_event the wall time per kernel event, to set beside
/// BM_SimKernelEvents' floor.
void BM_IcapPartialLoad(benchmark::State& state) {
  sim::Simulator sim;
  xd1::NodeConfig config;
  config.layout = xd1::Layout::kDualPrr;
  xd1::Node node{sim, config};
  bitstream::Library library{node.floorplan(), {{1, "median", 1.0}}};
  node.configMemory().applyFull(*bitstream::parse(library.full(), node.device()));
  const bitstream::Bitstream& partial = library.modulePartial(0, 1);
  config::IcapController& icap = node.icap();
  const std::uint64_t chunkBytes = icap.timing().chunkBytes.count();
  const auto chunks = static_cast<std::int64_t>(
      (icap.wireBytes(partial).count() + chunkBytes - 1) / chunkBytes);
  const auto load = [](config::IcapController& c,
                       const bitstream::Bitstream& s) -> sim::Process {
    co_await c.load(s);
  };
  const std::uint64_t eventsBefore = sim.eventsProcessed();
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    sim.spawn(load(icap, partial));
    sim.run();
    benchmark::DoNotOptimize(icap.loadsPerformed());
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto events =
      static_cast<double>(sim.eventsProcessed() - eventsBefore);
  state.SetItemsProcessed(state.iterations() * chunks);
  state.counters["events_per_chunk"] =
      events / static_cast<double>(state.iterations() * chunks);
  state.counters["ns_per_event"] = elapsed.count() / events;
}
BENCHMARK(BM_IcapPartialLoad);

/// Builder::buildModulePartial on the dual-PRR region 0: recipe
/// construction only (header and frame runs; no frame is synthesized).
/// Bytes are the encoded stream bytes the recipe stands for.
void BM_BitstreamBuildPartial(benchmark::State& state) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  for (auto _ : state) {
    const auto stream = builder.buildModulePartial(plan.prr(0), 7);
    benchmark::DoNotOptimize(stream.size());
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(
          plan.prr(0).partialBitstreamBytes(plan.device()).count()));
}
BENCHMARK(BM_BitstreamBuildPartial);

/// Bitstream::crc() on a fresh copy of the same recipe stream: the one
/// fused synthesis pass (payload kernel and CRC per L1-sized block) a
/// recipe stream runs on its first CRC demand.
void BM_BitstreamCrc(benchmark::State& state) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  const bitstream::Bitstream stream =
      builder.buildModulePartial(plan.prr(0), 7);
  for (auto _ : state) {
    const bitstream::Bitstream copy = stream;  // a copy starts without a CRC
    benchmark::DoNotOptimize(copy.crc());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size().count()));
}
BENCHMARK(BM_BitstreamCrc);

/// Bitstream::bytes() on a fresh copy of the same recipe stream: the
/// on-demand materialization export and relocation pay once per stream,
/// two synthesis passes (crc(), then the bytes checked against it).
void BM_BitstreamMaterialize(benchmark::State& state) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  const bitstream::Bitstream stream =
      builder.buildModulePartial(plan.prr(0), 7);
  for (auto _ : state) {
    const bitstream::Bitstream copy = stream;  // a copy starts unmaterialized
    benchmark::DoNotOptimize(copy.bytes().data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size().count()));
}
BENCHMARK(BM_BitstreamMaterialize);

/// The payload pass of BM_BitstreamBuildPartial alone: every frame of the
/// dual-PRR region 0 at the module partial's stride, through
/// writeFramePayloads (Arg 0: the AVX2 kernel where the CPU has it) or the
/// scalar reference (Arg 1). Bytes are payload bytes.
void BM_FramePayloads(benchmark::State& state) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const fabric::FrameRange range = plan.prr(0).frames(plan.device());
  const std::uint32_t frameBytes = plan.device().geometry().encoding().frameBytes;
  const std::size_t stride = std::size_t{frameBytes} + 4;
  std::vector<std::uint8_t> out(range.count * stride);
  const bool scalar = state.range(0) == 1;
  state.SetLabel(scalar || !bitstream::detail::framePayloadsVectorized()
                     ? "scalar"
                     : "avx2");
  for (auto _ : state) {
    std::fill(out.begin(), out.end(), 0);
    if (scalar) {
      bitstream::detail::writeFramePayloadsScalar(7, range.first, range.count,
                                                  frameBytes, out, stride);
    } else {
      bitstream::writeFramePayloads(7, range.first, range.count, frameBytes,
                                    out, stride);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(range.count * frameBytes));
}
BENCHMARK(BM_FramePayloads)->Arg(0)->Arg(1);

void BM_BitstreamParsePartial(benchmark::State& state) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  const auto stream = builder.buildModulePartial(plan.prr(0), 7);
  for (auto _ : state) {
    const auto parsed =
        bitstream::parse(std::span{stream.bytes()}, plan.device());
    benchmark::DoNotOptimize(parsed.frameRuns.size());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.size().count()));
}
BENCHMARK(BM_BitstreamParsePartial);

/// config::verifyRegion of the 380-frame dual-PRR region 0 against the
/// module partial loaded into it, after `upsets` single-bit upsets in
/// distinct frames: the per-frame readback a scrub pass or a verify-and-
/// repair round runs. Items are frames checked.
void verifyRegionLoop(benchmark::State& state, std::uint32_t upsets) {
  const fabric::Floorplan plan = fabric::makeDualPrrLayout();
  const bitstream::Builder builder{plan.device()};
  config::ConfigMemory memory{plan.device()};
  memory.applyFull(*bitstream::parse(builder.buildFull(1), plan.device()));
  const bitstream::Bitstream golden =
      builder.buildModulePartial(plan.prr(0), 7);
  memory.applyPartial(*bitstream::parse(golden, plan.device()));
  const fabric::FrameRange range = plan.prr(0).frames(plan.device());
  for (std::uint32_t i = 0; i < upsets; ++i) {
    memory.injectUpset(range.first + 1 + i * 71, 17 * i, 0x10);
  }
  for (auto _ : state) {
    const auto corrupted = config::verifyRegion(memory, golden);
    if (corrupted.size() != upsets) state.SkipWithError("wrong frame count");
    benchmark::DoNotOptimize(corrupted.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(range.count));
}

void BM_VerifyRegionClean(benchmark::State& state) {
  verifyRegionLoop(state, 0);
}
BENCHMARK(BM_VerifyRegionClean);

void BM_VerifyRegionUpset(benchmark::State& state) {
  verifyRegionLoop(state, 5);
}
BENCHMARK(BM_VerifyRegionUpset);

/// util::Crc32 over one buffer: a 64 B minimum-kernel input, a 2 KiB host
/// chunk, and the 404,388 B dual-PRR partial.
void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  util::Rng rng{3};
  for (auto& b : data) b = static_cast<std::uint8_t>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32::of(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(64)->Arg(2'048)->Arg(404'388);

void BM_MedianFilter(benchmark::State& state) {
  util::Rng rng{5};
  const tasks::Image img = tasks::makeNoiseImage(256, 256, rng);
  for (auto _ : state) {
    const auto out = tasks::kernels::medianFilter3x3(img);
    benchmark::DoNotOptimize(out.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(img.pixelCount()));
}
BENCHMARK(BM_MedianFilter);

void BM_SobelFilter(benchmark::State& state) {
  util::Rng rng{5};
  const tasks::Image img = tasks::makeNoiseImage(256, 256, rng);
  for (auto _ : state) {
    const auto out = tasks::kernels::sobelFilter(img);
    benchmark::DoNotOptimize(out.pixels().data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(img.pixelCount()));
}
BENCHMARK(BM_SobelFilter);

/// One steady fleet batch per iteration: examples/fleet/steady.fleet (the
/// FleetOptions defaults under its seed) at 50 k requests on one thread,
/// the per-request loop of perfbench's fleet_steady. ns_per_request is wall
/// time per request; request_slots is the deterministic slot high-water
/// mark, which stays at the in-flight population however many requests run.
void BM_FleetSteadyBatch(benchmark::State& state) {
  const auto registry = tasks::makePaperFunctions();
  fleet::FleetOptions options;
  options.seed = 61927;
  options.requests = 50'000;
  options.threads = 1;
  const fleet::BladeProfile profile = fleet::calibrateBladeProfile(
      registry, options.calibration, options.payloadBytes);
  std::size_t slots = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const fleet::FleetReport report = fleet::runFleet(registry, profile, options);
    slots = report.requestSlots;
    benchmark::DoNotOptimize(report.completed);
  }
  const std::chrono::duration<double, std::nano> elapsed =
      std::chrono::steady_clock::now() - start;
  const auto requests =
      static_cast<double>(state.iterations()) * static_cast<double>(options.requests);
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(options.requests));
  state.counters["ns_per_request"] = elapsed.count() / requests;
  state.counters["request_slots"] = static_cast<double>(slots);
}
BENCHMARK(BM_FleetSteadyBatch);

void BM_PrtrScenarioEndToEnd(benchmark::State& state) {
  const auto registry = tasks::makePaperFunctions();
  const auto workload = tasks::makeRoundRobinWorkload(
      registry, static_cast<std::size_t>(state.range(0)),
      util::Bytes{1'000'000});
  runtime::ScenarioOptions so;
  so.forceMiss = true;
  so.sides = runtime::ScenarioSides::kPrtrOnly;
  for (auto _ : state) {
    const auto report = runtime::runScenario(registry, workload, so).prtr;
    benchmark::DoNotOptimize(report.total);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PrtrScenarioEndToEnd)->Arg(16)->Arg(64);

}  // namespace

// google-benchmark has its own flag vocabulary; parse the shared
// bench::Options surface first, translate `--json <path>` into
// --benchmark_format/--benchmark_out, and forward only what the shared
// parser did not recognise, so every bench binary shares one CLI surface.
int main(int argc, char** argv) {
  const auto options = bench::Options::parse("bench_micro", argc, argv);
  if (options.helpRequestedAndHandled(
          "  (unrecognised arguments are forwarded to google-benchmark)")) {
    return 0;
  }
  std::vector<std::string> args;
  args.emplace_back(argv[0]);
  if (options.jsonRequested()) {
    args.emplace_back("--benchmark_format=console");
    args.emplace_back("--benchmark_out=" + options.jsonPath());
    args.emplace_back("--benchmark_out_format=json");
  }
  for (const std::string& arg : options.rest()) args.push_back(arg);
  std::vector<char*> rawArgs;
  rawArgs.reserve(args.size());
  for (auto& a : args) rawArgs.push_back(a.data());
  int rawArgc = static_cast<int>(rawArgs.size());
  benchmark::Initialize(&rawArgc, rawArgs.data());
  if (benchmark::ReportUnrecognizedArguments(rawArgc, rawArgs.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
