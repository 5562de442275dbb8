#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "analyze/checks_fleet.hpp"
#include "bitstream/parser.hpp"
#include "exec/artifact_cache.hpp"
#include "fleet/calibrate.hpp"
#include "host.hpp"
#include "model/calibration.hpp"
#include "model/model.hpp"
#include "runtime/cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/scenario.hpp"
#include "spans.hpp"
#include "tasks/hwfunction.hpp"
#include "tasks/workload.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace prtr;

constexpr std::size_t kFig9Calls = 120;        // calls per point, as bench_sweep
constexpr std::size_t kFig9CheckPoints = 16;   // digest and exact-count set
constexpr std::uint64_t kFig9MinOps = 100;     // p90 keeps >= 10 samples beyond
constexpr double kXTaskLo = 1e-3;
constexpr double kXTaskHi = 50.0;
constexpr double kWarmupXTask = 1.0;
// Requests per runFleet call. Fleet memory grows with requests, so a run
// is a sequence of bounded batches rather than one unbounded call.
constexpr std::uint64_t kFleetBatch = 50'000;
constexpr int kStreamProbeReps = 5;
// Throughput is the 95th percentile of block rates (see blockRate): on a
// shared host, contention only ever slows a block down, and it comes in
// phases of seconds, so the fast blocks of a run repeat across runs.
constexpr double kBlockPercentile = 95.0;

/// Seed of op or batch `index` of a run: index 0 is the workload seed
/// itself, later indices are independent splitmix64 streams.
std::uint64_t indexSeed(std::uint64_t seed, std::uint64_t index) {
  if (index == 0) return seed;
  std::uint64_t z = seed + index * 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// CPU and wall time elapsed since construction.
struct Stopwatch {
  double wall0 = wallSeconds();
  double cpu0 = processCpuSeconds();
  [[nodiscard]] double wall() const { return wallSeconds() - wall0; }
  [[nodiscard]] double cpu() const { return processCpuSeconds() - cpu0; }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double peakRssMb() {
  return static_cast<double>(readMemStatus().hwmKb) / 1024.0;
}

/// Span durations (ns) named `name` among spans[begin..].
std::vector<double> spanDurations(const SpanRecorder& spans, std::string_view name,
                                  std::size_t begin) {
  std::vector<double> out;
  const auto& all = spans.spans();
  for (std::size_t i = begin; i < all.size(); ++i) {
    if (all[i].endNs >= 0 && name == all[i].name) {
      out.push_back(static_cast<double>(all[i].endNs - all[i].startNs));
    }
  }
  return out;
}

/// Total ns of spans named `name` among spans[begin..].
double spanTotalNs(const SpanRecorder& spans, std::string_view name,
                   std::size_t begin) {
  double total = 0.0;
  for (const double d : spanDurations(spans, name, begin)) total += d;
  return total;
}

void addLedger(RunResult& result, const SpanRecorder& spans) {
  for (const auto& [name, t] : spans.totals()) {
    std::ostringstream line;
    line << "span " << name << " count=" << t.count
         << " total_ms=" << static_cast<double>(t.totalNs) / 1e6
         << " self_ms=" << static_cast<double>(t.selfNs) / 1e6;
    result.notes.push_back(line.str());
  }
}

/// Process CPU time of the same work run untraced and traced, pair by
/// pair, so both sides see the same inputs and the same host conditions.
/// The order within a pair alternates: the second run of a pair reuses the
/// heap the first one grew, which would otherwise favour one side.
class TracingCost {
 public:
  template <typename U, typename T>
  void pair(U&& untracedWork, T&& tracedWork) {
    const bool tracedFirst = (untraced_.size() % 2) == 1;
    if (tracedFirst) traced_.push_back(cpuOf(tracedWork));
    untraced_.push_back(cpuOf(untracedWork));
    if (!tracedFirst) traced_.push_back(cpuOf(tracedWork));
  }

  /// Traced CPU over untraced CPU, minus one. The first pair is left out
  /// when there are others: it also pays first-touch page faults.
  [[nodiscard]] double overheadFrac() const {
    const std::size_t skip = untraced_.size() > 1 ? 1 : 0;
    double u = 0.0;
    double t = 0.0;
    for (std::size_t i = skip; i < untraced_.size(); ++i) {
      u += untraced_[i];
      t += traced_[i];
    }
    return ratio(t, u) - 1.0;
  }

 private:
  template <typename F>
  static double cpuOf(F& work) {
    const double cpu0 = processCpuSeconds();
    work();
    return processCpuSeconds() - cpu0;
  }

  std::vector<double> untraced_;
  std::vector<double> traced_;
};

void recordFailure(RunResult& result, std::uint64_t ops, const std::string& why) {
  result.correct = false;
  result.failed += ops;
  result.errors.push_back(why);
}

/// Compares the check-set digest with the committed one, when committed.
void checkDigestAgainst(RunResult& result, const RunOptions& options,
                        const std::string& digest, std::uint64_t checkOps) {
  const std::optional<std::string> committed =
      committedDigest(options.digestFile, options.workload, options.seed);
  std::string note = "digest " + options.workload + " seed " +
                     std::to_string(options.seed) + " = " + digest;
  if (!committed) {
    note += " (seed not committed: invariants only)";
  } else if (*committed == digest) {
    note += " (matches committed)";
  } else {
    note += " (MISMATCH, committed " + *committed + ")";
    recordFailure(result, checkOps,
                  "check-set digest differs from the committed one");
  }
  result.notes.push_back(note);
}

/// Ends set-up: setup_s is the process CPU time since the process started,
/// which a busy host does not stretch the way it stretches wall time. The
/// wall time is reported as context.
void endSetup(RunResult& result, const RunOptions& options) {
  result.setupSeconds = processCpuSeconds();
  result.report.push_back({"setup_wall_s", wallSeconds() - options.startWall, "s"});
}

/// Measures host_concurrency (k = nproc) and prints it as context.
void addHostContext(RunResult& result) {
  const unsigned k = std::max(1u, std::thread::hardware_concurrency());
  result.notes.push_back("host: " + std::to_string(k) + " threads measured " +
                         std::to_string(hostConcurrency(k)) +
                         "x the throughput of one (host_concurrency, context)");
}

// ===================================================================
// fig9_sweep
// ===================================================================

/// The Fig. 9(b) setting on the process-wide artifact cache: dual PRR,
/// measured basis, H = 0, queue look-ahead, T_control = 10 us, round-robin
/// over the paper's functions, both FRTR and PRTR sides.
class Fig9Bench {
 public:
  struct Point {
    analysis::Fig9Point point;
    tasks::Workload workload;
    runtime::ScenarioResult result;
  };

  Fig9Bench()
      : registry_(tasks::makePaperFunctions()),
        refNode_(refSim_, refConfig()),
        fn_(&registry_.byName("median")),
        tFrtrSeconds_(model::configTimes(refNode_)
                          .full(model::ConfigTimeBasis::kMeasured)
                          .toSeconds()) {}

  /// X_task of op `index`: log-uniform in [1e-3, 50] from the seed,
  /// stratified so every kFig9CheckPoints consecutive ops hold one draw
  /// from each of as many equal log-width strata — each block of ops then
  /// spans the whole range, whatever the seed.
  static double xTask(std::uint64_t seed, std::uint64_t index) {
    util::Rng rng{indexSeed(seed, index + 1)};
    const double stratum = static_cast<double>(index % kFig9CheckPoints);
    const double u =
        (stratum + rng.uniform()) / static_cast<double>(kFig9CheckPoints);
    const double lo = std::log(kXTaskLo);
    return std::exp(lo + u * (std::log(kXTaskHi) - lo));
  }

  /// One point: one runtime::runScenario, spanned as "runtime.scenario".
  [[nodiscard]] Point run(double xTask, SpanRecorder* spans,
                          std::uint64_t op) const {
    Point p;
    p.point.xTask = xTask;
    p.point.dataBytes = model::bytesForTaskTime(
        refNode_, *fn_, util::Time::seconds(xTask * tFrtrSeconds_));
    p.workload =
        tasks::makeRoundRobinWorkload(registry_, kFig9Calls, p.point.dataBytes);
    {
      const SpanRecorder::Scope scope{spans, "runtime.scenario", op};
      p.result = runtime::runScenario(registry_, p.workload, scenarioOptions());
    }
    p.point.simSpeedup = p.result.speedup;
    p.point.modelSpeedup = p.result.modelSpeedup;
    p.point.modelAsymptote = model::asymptoticSpeedup(p.result.modelParams);
    return p;
  }

  /// Re-runs a point's two sides the way runScenario does, with a span
  /// around each layer call, and checks both reproduce its simulated time.
  void decompose(const Point& p, SpanRecorder& spans, std::uint64_t op) const {
    const runtime::ExecutorOptions eo = executorOptions();
    {
      sim::Simulator sim;
      std::unique_ptr<xd1::Node> node;
      {
        const SpanRecorder::Scope scope{&spans, "xd1.node_build", op};
        node = std::make_unique<xd1::Node>(sim, nodeConfig());
      }
      std::optional<bitstream::Library> library;
      {
        const SpanRecorder::Scope scope{&spans, "bitstream.library", op};
        library.emplace(makeLibrary(*node));
        (void)library->full();
      }
      runtime::FrtrExecutor frtr{*node, registry_, *library, eo};
      runtime::ExecutionReport report;
      {
        const SpanRecorder::Scope scope{&spans, "runtime.frtr_run", op};
        report = frtr.run(p.workload);
      }
      requireSame("FRTR", report, p.result.frtr);
    }
    {
      sim::Simulator sim;
      std::unique_ptr<xd1::Node> node;
      {
        const SpanRecorder::Scope scope{&spans, "xd1.node_build", op};
        node = std::make_unique<xd1::Node>(sim, nodeConfig());
      }
      std::optional<bitstream::Library> library;
      {
        const SpanRecorder::Scope scope{&spans, "bitstream.library", op};
        library.emplace(makeLibrary(*node));
        (void)prtrStreams(*library, *node);
      }
      std::vector<std::uint64_t> sequence;
      sequence.reserve(p.workload.calls.size());
      for (const tasks::TaskCall& call : p.workload.calls) {
        sequence.push_back(registry_.at(call.functionIndex).id);
      }
      const runtime::ScenarioOptions so = scenarioOptions();
      auto cache = runtime::makeCache(so.cachePolicy,
                                      node->floorplan().prrCount(), sequence);
      auto prefetcher = runtime::makePrefetcher(
          so.prefetcherKind, so.decisionLatency, sequence, so.associationWindow);
      runtime::PrtrExecutor prtr{*node,  registry_,   *library,
                                 *cache, *prefetcher, eo};
      runtime::ExecutionReport report;
      {
        const SpanRecorder::Scope scope{&spans, "runtime.prtr_run", op};
        report = prtr.run(p.workload);
      }
      requireSame("PRTR", report, p.result.prtr);
    }
  }

  struct StreamCost {
    double parseMsPerOp = 0.0;  ///< parse of each node's distinct streams
    double crcMbPerS = 0.0;     ///< Crc32::update over the same bytes
  };

  /// Times bitstream::parse and util::Crc32 on the streams one point's two
  /// nodes load: ConfigMemory parses each distinct stream once per node.
  [[nodiscard]] StreamCost streamCost() const {
    sim::Simulator sim;
    const xd1::Node node{sim, nodeConfig()};
    bitstream::Library library = makeLibrary(node);
    std::vector<const bitstream::Bitstream*> loaded{&library.full()};  // FRTR
    for (const bitstream::Bitstream* s : prtrStreams(library, node)) {
      loaded.push_back(s);
    }
    StreamCost cost;
    double crcSeconds = 0.0;
    double bytes = 0.0;
    for (const bitstream::Bitstream* stream : loaded) {
      std::vector<double> parse;
      std::vector<double> crc;
      for (int rep = 0; rep < kStreamProbeReps; ++rep) {
        double t0 = wallSeconds();
        (void)bitstream::parse(*stream, node.device());
        parse.push_back(wallSeconds() - t0);
        t0 = wallSeconds();
        util::Crc32 c;
        c.update(std::span<const std::uint8_t>{stream->bytes()});
        crc.push_back(wallSeconds() - t0);
      }
      cost.parseMsPerOp += median(parse) * 1e3;
      crcSeconds += median(crc);
      bytes += static_cast<double>(stream->bytes().size());
    }
    cost.crcMbPerS = ratio(bytes / 1e6, crcSeconds);
    return cost;
  }

 private:
  static xd1::NodeConfig refConfig() {
    xd1::NodeConfig cfg;
    cfg.layout = xd1::Layout::kDualPrr;
    return cfg;
  }

  static runtime::ScenarioOptions scenarioOptions() {
    runtime::ScenarioOptions so;
    so.layout = xd1::Layout::kDualPrr;
    so.basis = model::ConfigTimeBasis::kMeasured;
    so.tControl = util::Time::microseconds(10);
    so.forceMiss = true;
    so.prepare = runtime::PrepareSource::kQueue;
    so.artifacts = &exec::ArtifactCache::global();
    return so;
  }

  static runtime::ExecutorOptions executorOptions() {
    const runtime::ScenarioOptions so = scenarioOptions();
    runtime::ExecutorOptions eo;
    eo.basis = so.basis;
    eo.tControl = so.tControl;
    eo.forceMiss = so.forceMiss;
    eo.prepare = so.prepare;
    return eo;
  }

  /// The node a scenario builds: floorplan through the artifact cache.
  static xd1::NodeConfig nodeConfig() {
    xd1::NodeConfig cfg = refConfig();
    exec::ArtifactCache* cache = &exec::ArtifactCache::global();
    cfg.floorplanSource = [cache](xd1::Layout layout,
                                  const std::function<fabric::Floorplan()>& build) {
      return cache->floorplan(exec::KeyBuilder{}
                                  .add("xd1.floorplan")
                                  .add("XC2VP50")
                                  .add(xd1::toString(layout))
                                  .value(),
                              build);
    };
    return cfg;
  }

  [[nodiscard]] bitstream::Library makeLibrary(const xd1::Node& node) const {
    return bitstream::Library{
        node.floorplan(),
        registry_.moduleSpecs(node.floorplan().prr(0).resources(node.device())),
        exec::cachingStreamSource(exec::ArtifactCache::global())};
  }

  /// Distinct streams a PRTR node loads: the full stream, then every
  /// module partial (forced misses rotate every module through every PRR).
  [[nodiscard]] std::vector<const bitstream::Bitstream*> prtrStreams(
      bitstream::Library& library, const xd1::Node& node) const {
    std::vector<const bitstream::Bitstream*> out{&library.full()};
    for (std::size_t prr = 0; prr < node.floorplan().prrCount(); ++prr) {
      for (const tasks::HwFunction& fn : registry_.all()) {
        out.push_back(&library.modulePartial(prr, fn.id));
      }
    }
    return out;
  }

  static void requireSame(const char* side, const runtime::ExecutionReport& got,
                          const runtime::ExecutionReport& want) {
    if (got.total.ps() != want.total.ps() || got.calls != want.calls) {
      throw std::runtime_error(std::string{"decomposed "} + side +
                               " run differs from runScenario's");
    }
  }

  tasks::FunctionRegistry registry_;
  sim::Simulator refSim_;
  xd1::Node refNode_;
  const tasks::HwFunction* fn_;
  double tFrtrSeconds_;
};

/// Exact per-op counts over the check set, from the scenario metrics.
struct Fig9Counts {
  double events = 0.0;
  double icapLoads = 0.0;
  double icapBytes = 0.0;
  double apiLoads = 0.0;

  void add(const obs::MetricsSnapshot& m) {
    const auto both = [&m](const std::string& name) {
      return static_cast<double>(m.counterOr("frtr." + name) +
                                 m.counterOr("prtr." + name));
    };
    events += both("sim.events_processed");
    icapLoads += both("config.icap.loads");
    icapBytes += both("config.icap.bytes_written");
    apiLoads += both("config.vendor_api.loads");
  }
};

/// The check set every fig9 run shares: the first kFig9CheckPoints ops.
struct Fig9CheckSet {
  std::vector<analysis::Fig9Point> points;
  obs::MetricsSnapshot merged;
  Fig9Counts counts;

  void add(const Fig9Bench::Point& p) {
    points.push_back(p.point);
    merged.merge(p.result.metrics);
    counts.add(p.result.metrics);
  }
  [[nodiscard]] std::string digest() const {
    return digestHex(renderFig9(points, merged));
  }
};

/// Runs op `index`, checks it, and folds it into the check set when it
/// belongs there. Returns the point when it ran.
std::optional<Fig9Bench::Point> fig9Op(const Fig9Bench& bench,
                                       const RunOptions& options,
                                       std::uint64_t index, SpanRecorder* spans,
                                       RunResult& result, Fig9CheckSet* check) {
  try {
    Fig9Bench::Point p =
        bench.run(Fig9Bench::xTask(options.seed, index), spans, index);
    if (auto error = checkFig9Point(p.point)) {
      recordFailure(result, 1, "op " + std::to_string(index) + ": " + *error);
    }
    if (check != nullptr && index < kFig9CheckPoints) check->add(p);
    return p;
  } catch (const std::exception& e) {
    recordFailure(result, 1, "op " + std::to_string(index) + " threw: " + e.what());
    return std::nullopt;
  }
}

RunResult runFig9(const RunOptions& options) {
  RunResult result;
  SpanRecorder spans;
  SpanRecorder* setupSpans = options.trace ? &spans : nullptr;
  std::optional<Fig9Bench> bench;
  {
    const SpanRecorder::Scope scope{setupSpans, "setup", 0};
    bench.emplace();
    // The untimed warm-up point fills the artifact cache.
    const Fig9Bench::Point warm = bench->run(kWarmupXTask, setupSpans, 0);
    if (auto error = checkFig9Point(warm.point)) {
      throw std::runtime_error("warm-up point: " + *error);
    }
  }
  endSetup(result, options);
  if (options.setupOnly) return result;

  Fig9CheckSet check;
  std::uint64_t ops = 0;

  if (!options.trace) {
    std::vector<double> opMs;
    std::vector<double> opWall;
    std::vector<double> opCpu;
    double errMax = 0.0;
    const Stopwatch sw;
    // Whole blocks of kFig9CheckPoints ops, one per X_task stratum.
    while (ops < kFig9MinOps || ops % kFig9CheckPoints != 0 ||
           sw.wall() < options.seconds) {
      const Stopwatch op;
      const auto p = fig9Op(*bench, options, ops, nullptr, result, &check);
      opCpu.push_back(op.cpu());
      opWall.push_back(op.wall());
      opMs.push_back(opWall.back() * 1e3);
      if (p) errMax = std::max(errMax, p->result.modelError);
      ++ops;
    }
    const double cpu = sw.cpu();
    result.attempted = ops;
    checkDigestAgainst(result, options, check.digest(), kFig9CheckPoints);

    const auto rate = [](const std::vector<double>& seconds) {
      return blockRate(seconds, kFig9CheckPoints, 1.0, kBlockPercentile);
    };
    result.gated = {{"ops_per_cpu_s", rate(opCpu), "op/s"},
                    {"ops_per_s", rate(opWall), "op/s"},
                    {"peak_rss_mb", peakRssMb(), "MB"}};
    result.report.insert(result.report.end(), result.gated.begin(),
                         result.gated.end());
    result.report.push_back(
        {"ops_per_cpu_s_overall", ratio(static_cast<double>(ops), cpu), "op/s"});
    result.report.push_back({"op_p50_ms", percentile(opMs, 50.0), "ms"});
    result.report.push_back({"op_p90_ms", percentile(opMs, 90.0), "ms"});
    if (const auto tail = tailPercentile(opMs.size()); tail && *tail > 90.0) {
      std::ostringstream name;
      name << "op_p" << *tail << "_ms";
      result.report.push_back({name.str(), percentile(opMs, *tail), "ms"});
    }
    result.report.push_back({"op_samples", static_cast<double>(opMs.size()), "count"});
    result.report.push_back({"model_err_max", errMax, "ratio"});
    addHostContext(result);
    return result;
  }

  // Traced run. Each op runs untraced, then again with a span around its
  // layer call (the CPU difference is the tracing overhead); then D: the
  // check set again, decomposed into the layers runScenario calls.
  const exec::ArtifactCache::Stats cache0 = exec::ArtifactCache::global().stats();
  TracingCost cost;
  const Stopwatch swUT;
  while (ops < kFig9CheckPoints || swUT.wall() < 0.8 * options.seconds) {
    cost.pair(
        [&] { (void)fig9Op(*bench, options, ops, nullptr, result, &check); },
        [&] {
          const SpanRecorder::Scope scope{&spans, "fig9.op", ops};
          (void)fig9Op(*bench, options, ops, &spans, result, nullptr);
        });
    ++ops;
  }
  const std::size_t beginD = spans.spans().size();
  const Stopwatch swD;
  std::uint64_t pointRuns = 0;
  while (pointRuns == 0 || swD.wall() < 0.2 * options.seconds) {
    for (std::uint64_t i = 0; i < kFig9CheckPoints; ++i, ++pointRuns) {
      const SpanRecorder::Scope scope{&spans, "fig9.layers", i};
      try {
        const auto p = bench->run(Fig9Bench::xTask(options.seed, i), &spans, i);
        bench->decompose(p, spans, i);
      } catch (const std::exception& e) {
        recordFailure(result, 1, "decomposition of op " + std::to_string(i) +
                                     ": " + e.what());
      }
    }
  }
  result.attempted = 2 * ops + pointRuns;
  checkDigestAgainst(result, options, check.digest(), kFig9CheckPoints);
  const Fig9Bench::StreamCost streams = bench->streamCost();

  const auto perPointMs = [&](std::string_view name) {
    return spanTotalNs(spans, name, beginD) / 1e6 / static_cast<double>(pointRuns);
  };
  const double n = static_cast<double>(kFig9CheckPoints);
  const double eventsPerOp = check.counts.events / n;
  const double frtrMs = perPointMs("runtime.frtr_run");
  const double prtrMs = perPointMs("runtime.prtr_run");
  const exec::ArtifactCache::Stats cache1 = exec::ArtifactCache::global().stats();
  const double hits = static_cast<double>(cache1.hits - cache0.hits);
  const double misses = static_cast<double>(cache1.misses - cache0.misses);

  addHostContext(result);
  result.gated = {{"trace.overhead_frac", cost.overheadFrac(), "ratio"}};
  result.report.push_back(result.gated.back());
  result.report.insert(
      result.report.end(),
      {{"runtime.scenario_ms", perPointMs("runtime.scenario"), "ms"},
       {"runtime.frtr_run_ms", frtrMs, "ms"},
       {"runtime.prtr_run_ms", prtrMs, "ms"},
       {"xd1.node_build_ms", perPointMs("xd1.node_build"), "ms"},
       {"bitstream.library_ms", perPointMs("bitstream.library"), "ms"},
       {"bitstream.parse_ms_per_op", streams.parseMsPerOp, "ms"},
       {"util.crc32_mb_per_s", streams.crcMbPerS, "MB/s"},
       {"sim.events_per_op", eventsPerOp, "count"},
       {"sim.ns_per_event", ratio((frtrMs + prtrMs) * 1e6, eventsPerOp), "ns"},
       {"config.icap.loads_per_op", check.counts.icapLoads / n, "count"},
       {"config.icap.bytes_per_op", check.counts.icapBytes / n, "B"},
       {"config.vendor_api.loads_per_op", check.counts.apiLoads / n, "count"},
       {"exec.cache.hit_rate", ratio(hits, hits + misses), "ratio"},
       {"traced_ops", static_cast<double>(ops), "count"},
       {"decomposed_point_runs", static_cast<double>(pointRuns), "count"}});
  addLedger(result, spans);
  if (!options.traceOut.empty()) spans.writeFile(options.traceOut);
  return result;
}

// ===================================================================
// fleet_steady / fleet_chaos_surge
// ===================================================================

/// A linted, calibrated fleet: set-up is the spec lint plus
/// fleet::calibrateBladeProfile; each op batch is one fleet::runFleet.
class FleetBench {
 public:
  FleetBench(FleetKind kind, const std::string& specDir, SpanRecorder* spans)
      : kind_(kind), registry_(tasks::makePaperFunctions()) {
    {
      const SpanRecorder::Scope scope{spans, "fleet.lint", 0};
      const std::string path =
          specDir + (kind == FleetKind::kSteady ? "/steady.fleet" : "/surge.fleet");
      std::ifstream in{path};
      if (!in) throw std::runtime_error("cannot open fleet spec " + path);
      const analyze::FleetSpec spec = analyze::parseFleetSpec(in);
      const analyze::DiagnosticSink lint = analyze::lintFleetSpec(spec);
      if (lint.hasErrors()) throw std::runtime_error(path + ":\n" + lint.toText());
      options_ = analyze::fleetSpecToOptions(spec);
      options_.threads = 1;
      analyze::DiagnosticSink sink;
      analyze::checkFleetOptions(options_, sink);
      if (sink.hasErrors()) throw std::runtime_error(path + ":\n" + sink.toText());
      if (kind == FleetKind::kChaosSurge) {
        // bench_fleet's chaos plan, attached after the spec passes lint:
        // 20% of blades abort ICAP loads, time out transfers, stall links.
        options_.degradedFraction = 0.2;
        options_.degradedFaults.icapAbortRate = 0.30;
        options_.degradedFaults.transferTimeoutRate = 0.10;
        options_.degradedFaults.linkStallRate = 0.05;
      }
    }
    const SpanRecorder::Scope scope{spans, "fleet.calibrate", 0};
    analyze::DiagnosticSink sink;
    profile_ = fleet::calibrateBladeProfile(registry_, options_.calibration,
                                            options_.payloadBytes, sink);
    if (sink.hasErrors()) throw std::runtime_error(sink.toText());
  }

  /// One fleet::runFleet of `requests` fresh requests under `seed`, with
  /// the spec's tracing / SLO series optionally switched off.
  [[nodiscard]] fleet::FleetReport run(std::uint64_t seed, std::uint64_t requests,
                                       bool tracing = true, bool series = true) const {
    fleet::FleetOptions opts = options_;
    opts.seed = seed;
    opts.requests = requests;
    // As bench_fleet: the chaos plan's fault streams follow the run seed.
    if (kind_ == FleetKind::kChaosSurge) opts.degradedFaults.seed = seed ^ 0xC4A05u;
    if (!tracing) opts.tracing.enabled = false;
    if (!series) opts.slo.enabled = false;
    return fleet::runFleet(registry_, profile_, opts);
  }

  [[nodiscard]] FleetKind kind() const noexcept { return kind_; }
  [[nodiscard]] const fleet::FleetOptions& options() const noexcept {
    return options_;
  }

 private:
  FleetKind kind_;
  tasks::FunctionRegistry registry_;
  fleet::FleetOptions options_;
  fleet::BladeProfile profile_;
};

FleetKind fleetKind(std::string_view workload) {
  return workload == "fleet_steady" ? FleetKind::kSteady : FleetKind::kChaosSurge;
}

/// One checked fleet batch: `requests` fresh requests under `seed`, spanned
/// as `spanName` when `spans` is set. A failed check or a throw counts all
/// of the batch's requests as failed. Returns the report when it ran.
struct FleetBatch {
  std::uint64_t seed = 0;
  std::uint64_t requests = kFleetBatch;
  bool tracing = true;
  bool series = true;
  const char* spanName = "fleet.run";
};

std::optional<fleet::FleetReport> fleetBatch(const FleetBench& bench,
                                             const FleetBatch& batch,
                                             std::uint64_t op, SpanRecorder* spans,
                                             RunResult& result) {
  const std::string label = "batch " + std::to_string(op);
  result.attempted += batch.requests;
  try {
    fleet::FleetReport report;
    {
      const SpanRecorder::Scope scope{spans, batch.spanName, op};
      report = bench.run(batch.seed, batch.requests, batch.tracing, batch.series);
    }
    std::optional<std::string> error =
        checkFleetReport(report, bench.kind(), bench.options());
    if (!error && report.offered != batch.requests) {
      error = "offered " + std::to_string(report.offered) + " of " +
              std::to_string(batch.requests) + " requests";
    }
    if (error) recordFailure(result, batch.requests, label + ": " + *error);
    return report;
  } catch (const std::exception& e) {
    recordFailure(result, batch.requests, label + " threw: " + e.what());
    return std::nullopt;
  }
}

RunResult runFleetWorkload(const RunOptions& options) {
  RunResult result;
  SpanRecorder spans;
  SpanRecorder* setupSpans = options.trace ? &spans : nullptr;
  std::optional<FleetBench> bench;
  {
    const SpanRecorder::Scope scope{setupSpans, "setup", 0};
    bench.emplace(fleetKind(options.workload), options.specDir, setupSpans);
  }
  endSetup(result, options);
  if (options.setupOnly) return result;
  const std::uint64_t rssAfterSetupKb = readMemStatus().rssKb;

  std::optional<fleet::FleetReport> first;
  const auto batch = [&](std::uint64_t index, SpanRecorder* batchSpans) {
    auto report = fleetBatch(*bench, {.seed = indexSeed(options.seed, index)},
                             index, batchSpans, result);
    if (index == 0 && !first) {
      first = std::move(report);
      const std::string digest = first ? digestHex(renderFleet(*first)) : "none";
      checkDigestAgainst(result, options, digest, kFleetBatch);
    }
  };

  if (!options.trace) {
    std::uint64_t batches = 0;
    std::vector<double> batchWall;
    std::vector<double> batchCpu;
    const Stopwatch sw;
    while (batches == 0 || sw.wall() < options.seconds) {
      const Stopwatch one;
      batch(batches++, nullptr);
      batchCpu.push_back(one.cpu());
      batchWall.push_back(one.wall());
    }
    const double cpu = sw.cpu();
    const double perBatch = static_cast<double>(kFleetBatch);
    const auto rate = [perBatch](const std::vector<double>& seconds) {
      return blockRate(seconds, 1, perBatch, kBlockPercentile);
    };
    result.gated = {{"ops_per_cpu_s", rate(batchCpu), "op/s"},
                    {"ops_per_s", rate(batchWall), "op/s"},
                    {"peak_rss_mb", peakRssMb(), "MB"}};
    result.report.insert(result.report.end(), result.gated.begin(),
                         result.gated.end());
    result.report.push_back(
        {"ops_per_cpu_s_overall",
         ratio(static_cast<double>(batches) * perBatch, cpu), "op/s"});
    if (first) {
      result.report.push_back(
          {"sim_p99_ms", first->latency.quantile(0.99) / 1e9, "ms"});
    }
    result.report.push_back({"batches", static_cast<double>(batches), "count"});
    addHostContext(result);
    return result;
  }

  // Traced run. Each batch runs untraced, then again with a span around
  // its runFleet (the CPU difference is the tracing overhead); then P:
  // request tracing and SLO series toggled on fleet_chaos_surge batches, to
  // price each. fleet_steady prices them on a surge fleet of its own, so
  // that a gated workload measures those layers too.
  const std::size_t beginT = spans.spans().size();
  TracingCost cost;
  std::uint64_t batches = 0;
  const Stopwatch swUT;
  while (batches < 2 || swUT.wall() < 0.7 * options.seconds) {
    cost.pair([&] { batch(batches, nullptr); },
              [&] {
                const SpanRecorder::Scope scope{&spans, "fleet.batch", batches};
                batch(batches, &spans);
              });
    ++batches;
  }

  addHostContext(result);
  result.gated = {{"trace.overhead_frac", cost.overheadFrac(), "ratio"}};
  result.report.push_back(result.gated.back());
  const double batchRequests = static_cast<double>(kFleetBatch);
  const double hwmKb = static_cast<double>(readMemStatus().hwmKb);
  result.report.insert(
      result.report.end(),
      {{"fleet.calibrate_ms", spanTotalNs(spans, "fleet.calibrate", 0) / 1e6, "ms"},
       {"fleet.ns_per_request",
        median(spanDurations(spans, "fleet.run", beginT)) / batchRequests, "ns"},
       {"fleet.rss_bytes_per_request",
        std::max(0.0, hwmKb - static_cast<double>(rssAfterSetupKb)) * 1024.0 /
            batchRequests,
        "B"}});
  if (first) {
    const fleet::FleetReport& r = *first;
    const double offered = static_cast<double>(r.offered);
    result.report.insert(
        result.report.end(),
        {{"fleet.dispatches_per_request",
          ratio(static_cast<double>(r.admitted + r.retries + r.hedges), offered),
          "count"},
         {"fleet.shed_frac", r.shedRate(), "ratio"},
         {"fleet.retry_frac", r.retryBudgetConsumption(), "ratio"},
         {"fleet.failed", static_cast<double>(r.failed), "count"}});
  }

  std::optional<FleetBench> ownSurge;
  if (bench->kind() != FleetKind::kChaosSurge) {
    ownSurge.emplace(FleetKind::kChaosSurge, options.specDir, nullptr);
  }
  const FleetBench& surge = ownSurge ? *ownSurge : *bench;
  const std::size_t beginP = spans.spans().size();
  const Stopwatch swP;
  std::optional<fleet::FleetReport> tracedFirst;
  std::uint64_t rounds = 0;
  while (rounds < 3 || swP.wall() < 0.3 * options.seconds) {
    const std::uint64_t seed = indexSeed(options.seed, rounds);
    auto traced = fleetBatch(surge, {seed, kFleetBatch, true, true, "fleet.run.traced"},
                             rounds, &spans, result);
    if (rounds == 0) tracedFirst = std::move(traced);
    (void)fleetBatch(surge, {seed, kFleetBatch, false, true, "fleet.run.series_only"},
                     rounds, &spans, result);
    (void)fleetBatch(surge, {seed, kFleetBatch, false, false, "fleet.run.bare"},
                     rounds, &spans, result);
    ++rounds;
  }
  const auto nsPerRequest = [&](std::string_view name) {
    return median(spanDurations(spans, name, beginP)) /
           static_cast<double>(kFleetBatch);
  };
  const double traced = nsPerRequest("fleet.run.traced");
  const double seriesOnly = nsPerRequest("fleet.run.series_only");
  const double bare = nsPerRequest("fleet.run.bare");
  if (tracedFirst) {
    result.report.push_back({"trace.kept_frac",
                             ratio(static_cast<double>(tracedFirst->tracesKept),
                                   static_cast<double>(tracedFirst->tracesRecorded)),
                             "ratio"});
  }
  result.report.insert(
      result.report.end(),
      {{"trace.ns_per_request", traced - seriesOnly, "ns"},
       {"obs.timeseries_ns_per_request", seriesOnly - bare, "ns"},
       {"probe_rounds", static_cast<double>(rounds), "count"}});
  result.report.push_back({"traced_batches", static_cast<double>(batches), "count"});
  addLedger(result, spans);
  if (!options.traceOut.empty()) spans.writeFile(options.traceOut);
  return result;
}

}  // namespace

bool isWorkload(std::string_view name) {
  return std::find(std::begin(kWorkloads), std::end(kWorkloads), name) !=
         std::end(kWorkloads);
}

RunResult runWorkload(const RunOptions& options) {
  return options.workload == "fig9_sweep" ? runFig9(options)
                                          : runFleetWorkload(options);
}

std::string checkDigest(std::string_view workload, std::uint64_t seed,
                        const std::string& specDir) {
  if (workload == "fig9_sweep") {
    const Fig9Bench bench;
    Fig9CheckSet check;
    for (std::uint64_t i = 0; i < kFig9CheckPoints; ++i) {
      check.add(bench.run(Fig9Bench::xTask(seed, i), nullptr, i));
    }
    return check.digest();
  }
  const FleetBench bench{fleetKind(workload), specDir, nullptr};
  return digestHex(renderFleet(bench.run(indexSeed(seed, 0), kFleetBatch)));
}

std::optional<std::string> committedDigest(const std::string& digestFile,
                                           std::string_view workload,
                                           std::uint64_t seed) {
  if (digestFile.empty()) return std::nullopt;
  std::ifstream in{digestFile};
  if (!in) throw std::runtime_error("cannot open digest file " + digestFile);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields{line};
    std::string name;
    std::uint64_t s = 0;
    std::string digest;
    if (fields >> name >> s >> digest && name == workload && s == seed) {
      return digest;
    }
  }
  return std::nullopt;
}

std::optional<std::string> checkFig9Point(const analysis::Fig9Point& point) {
  std::ostringstream os;
  if (!std::isfinite(point.simSpeedup) || point.simSpeedup < 1.0) {
    os << "X_task " << point.xTask << ": S_sim " << point.simSpeedup << " < 1";
    return os.str();
  }
  if (!(point.simSpeedup <= point.modelAsymptote)) {
    os << "X_task " << point.xTask << ": S_sim " << point.simSpeedup
       << " exceeds the eq. 7 asymptote " << point.modelAsymptote;
    return os.str();
  }
  return std::nullopt;
}

std::optional<std::string> checkFleetReport(const fleet::FleetReport& report,
                                            FleetKind kind,
                                            const fleet::FleetOptions& options) {
  std::ostringstream os;
  if (report.completed + report.failed + report.shed != report.offered) {
    os << "completed " << report.completed << " + failed " << report.failed
       << " + shed " << report.shed << " != offered " << report.offered;
    return os.str();
  }
  if (kind == FleetKind::kSteady && report.failed != 0) {
    os << report.failed << " request(s) failed on the healthy fleet";
    return os.str();
  }
  if (kind == FleetKind::kChaosSurge) {
    if (report.tailRetention() != 1.0) {
      os << "trace tail retention " << report.tailRetention() << " < 1";
      return os.str();
    }
    if (report.retryBudgetConsumption() > options.retry.budgetFraction + 0.01) {
      os << "retry-budget consumption " << report.retryBudgetConsumption()
         << " exceeds budget " << options.retry.budgetFraction << " + 0.01";
      return os.str();
    }
  }
  return std::nullopt;
}

std::string renderFig9(const std::vector<analysis::Fig9Point>& points,
                       const obs::MetricsSnapshot& merged) {
  return analysis::fig9Table(points).toString() + merged.toString();
}

std::string renderFleet(const fleet::FleetReport& report) {
  return report.toString() + report.metrics.toString();
}

}  // namespace perfbench
