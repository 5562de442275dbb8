#include "runtime/scenario.hpp"

#include <sstream>

#include "analyze/lint.hpp"
#include "exec/artifact_cache.hpp"
#include "model/calibration.hpp"
#include "obs/host.hpp"
#include "obs/trace_export.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"
#include "verify/timeline_rules.hpp"

namespace prtr::runtime {
namespace {

/// The store a run resolves floorplans and streams through.
exec::ArtifactCache& artifactsFor(const ScenarioOptions& options) {
  return options.artifacts != nullptr ? *options.artifacts
                                      : exec::ArtifactCache::global();
}

/// NodeConfig for one scenario run; the floorplan is fetched through the
/// run's artifact store (keyed by device + layout), not rebuilt per node.
xd1::NodeConfig nodeConfigFor(const ScenarioOptions& options) {
  xd1::NodeConfig nodeConfig;
  nodeConfig.layout = options.layout;
  nodeConfig.faults = options.faults;
  nodeConfig.recovery = options.recovery;
  nodeConfig.floorplanSource =
      [cache = &artifactsFor(options)](
          xd1::Layout layout, const std::function<fabric::Floorplan()>& build) {
        return cache->floorplan(exec::KeyBuilder{}
                                    .add("xd1.floorplan")
                                    .add("XC2VP50")
                                    .add(toString(layout))
                                    .value(),
                                build);
      };
  return nodeConfig;
}

/// Library for one node; streams resolve through the run's artifact store.
bitstream::Library makeLibrary(const ScenarioOptions& options,
                               const tasks::FunctionRegistry& registry,
                               const xd1::Node& node) {
  return bitstream::Library{
      node.floorplan(),
      registry.moduleSpecs(node.floorplan().prr(0).resources(node.device())),
      exec::cachingStreamSource(artifactsFor(options))};
}

/// Module-id sequence of a workload (for Belady / oracle construction).
std::vector<ModuleId> moduleSequence(const tasks::FunctionRegistry& registry,
                                     const tasks::Workload& workload) {
  std::vector<ModuleId> seq;
  seq.reserve(workload.calls.size());
  for (const tasks::TaskCall& call : workload.calls) {
    seq.push_back(registry.at(call.functionIndex).id);
  }
  return seq;
}

/// Average task time requirement across the workload on `node`.
util::Time averageTaskTime(const xd1::Node& node,
                           const tasks::FunctionRegistry& registry,
                           const tasks::Workload& workload) {
  util::require(!workload.calls.empty(), "averageTaskTime: empty workload");
  double sum = 0.0;
  for (const tasks::TaskCall& call : workload.calls) {
    sum += model::taskTime(node, registry.at(call.functionIndex), call.dataBytes)
               .toSeconds();
  }
  return util::Time::seconds(sum / static_cast<double>(workload.calls.size()));
}

ExecutorOptions executorOptions(const ScenarioOptions& options,
                                sim::Timeline* timeline) {
  ExecutorOptions eo;
  eo.basis = options.basis;
  eo.tControl = options.tControl;
  eo.forceMiss = options.forceMiss;
  eo.prepare = options.prepare;
  eo.timeline = timeline;
  return eo;
}

/// The PRTR side on a fresh node, with the configured cache policy and
/// prefetcher.
ExecutionReport runPrtrSide(const tasks::FunctionRegistry& registry,
                            const tasks::Workload& workload,
                            const ScenarioOptions& options,
                            sim::Timeline* timeline) {
  sim::Simulator sim;
  xd1::NodeConfig nodeConfig = nodeConfigFor(options);
  nodeConfig.icapTiming.multiFrameWrite = options.mfwCompression;
  xd1::Node node{sim, nodeConfig};
  bitstream::Library library = makeLibrary(options, registry, node);

  const auto sequence = moduleSequence(registry, workload);
  auto cache = makeCache(options.cachePolicy, node.floorplan().prrCount(),
                         sequence);
  auto prefetcher = makePrefetcher(options.prefetcherKind,
                                   options.decisionLatency, sequence,
                                   options.associationWindow);
  PrtrExecutor executor{node,   registry,     library,
                        *cache, *prefetcher, executorOptions(options, timeline)};
  return executor.run(workload);
}

model::Params deriveModelParamsAt(const tasks::FunctionRegistry& registry,
                                  const tasks::Workload& workload,
                                  const ScenarioOptions& options,
                                  double hitRatio) {
  sim::Simulator sim;
  const xd1::Node node{sim, nodeConfigFor(options)};

  model::AbsoluteParams abs;
  const model::ConfigTimes times = model::configTimes(node);
  abs.nCalls = workload.callCount();
  abs.tFrtr = times.full(options.basis);
  abs.tPrtr = times.partial(options.basis);
  abs.tTask = averageTaskTime(node, registry, workload);
  abs.tControl = options.tControl;
  abs.tDecision = options.decisionLatency;
  abs.hitRatio = hitRatio;
  return abs.normalized();
}

/// Host-timing ids (obs/host.hpp) of runScenario's phases, interned once
/// per process.
struct HostIds {
  obs::HistogramId lint, frtr, prtr, model, verify;
};

const HostIds& hostIds() {
  static const HostIds kIds = [] {
    obs::MetricTable& t = obs::MetricTable::global();
    return HostIds{t.histogram("host.scenario.lint_ns"),
                   t.histogram("host.scenario.frtr_ns"),
                   t.histogram("host.scenario.prtr_ns"),
                   t.histogram("host.scenario.model_ns"),
                   t.histogram("host.scenario.verify_ns")};
  }();
  return kIds;
}

}  // namespace

const char* toString(ScenarioSides sides) noexcept {
  switch (sides) {
    case ScenarioSides::kBoth: return "both";
    case ScenarioSides::kPrtrOnly: return "prtr-only";
  }
  return "?";
}

std::string ScenarioResult::toString() const {
  std::ostringstream os;
  os << "measured S = " << speedup << ", model S = " << modelSpeedup
     << " (error " << modelError * 100.0 << "%)\n";
  os << frtr.toString() << prtr.toString();
  return os.str();
}

model::Params deriveModelParams(const tasks::FunctionRegistry& registry,
                                const tasks::Workload& workload,
                                const ScenarioOptions& options) {
  return deriveModelParamsAt(registry, workload, options,
                             options.assumedHitRatio.value_or(0.0));
}

ScenarioResult runScenario(const tasks::FunctionRegistry& registry,
                           const tasks::Workload& workload,
                           const ScenarioOptions& options) {
  const HostIds& host = hostIds();

  // Strict mode: statically lint the scenario before instantiating any
  // simulator. Error-severity findings abort here with the same codes
  // prtr-lint reports; warnings are advisory and do not block execution.
  {
    const obs::HostTimer timer{host.lint};
    analyze::LintTargets lintTargets;
    lintTargets.scenario = &options;
    const analyze::DiagnosticSink lint = analyze::lintAll(lintTargets);
    if (lint.hasErrors()) {
      throw util::DomainError{"runScenario: " + lint.firstError().format()};
    }
  }

  // Resolve timelines: caller-provided ones win; when a trace collector is
  // attached (or inline verification requested) without timelines, record
  // into locals so the trace/checker still sees the run.
  sim::Timeline localFrtr;
  sim::Timeline localPrtr;
  const obs::Hooks& hooks = options.hooks;
  sim::Timeline* frtrTl = hooks.frtrTimeline;
  sim::Timeline* prtrTl = hooks.timeline;
  if (hooks.trace != nullptr || options.verify) {
    if (frtrTl == nullptr && options.sides == ScenarioSides::kBoth) {
      frtrTl = &localFrtr;
    }
    if (prtrTl == nullptr) prtrTl = &localPrtr;
  }

  ScenarioResult result;

  if (options.sides == ScenarioSides::kBoth) {
    const obs::HostTimer timer{host.frtr};
    sim::Simulator sim;
    xd1::Node node{sim, nodeConfigFor(options)};
    bitstream::Library library = makeLibrary(options, registry, node);
    FrtrExecutor frtr{node, registry, library, executorOptions(options, frtrTl)};
    result.frtr = frtr.run(workload);
  }

  {
    const obs::HostTimer timer{host.prtr};
    result.prtr = runPrtrSide(registry, workload, options, prtrTl);
  }

  const double hitRatio = options.forceMiss ? 0.0 : result.prtr.hitRatio();
  {
    const obs::HostTimer timer{host.model};
    result.modelParams = deriveModelParamsAt(registry, workload, options,
                                             hitRatio);
    result.modelSpeedup = model::speedup(result.modelParams);
  }
  if (options.sides == ScenarioSides::kBoth) {
    result.speedup = measuredSpeedup(result.frtr, result.prtr);
    result.modelError =
        util::relativeError(result.speedup, result.modelSpeedup);
  }

  if (options.sides == ScenarioSides::kBoth) {
    result.metrics.merge(result.frtr.metrics, "frtr.");
  }
  result.metrics.merge(result.prtr.metrics, "prtr.");
  result.metrics.gauges["scenario.speedup"] = result.speedup;
  result.metrics.gauges["scenario.model_speedup"] = result.modelSpeedup;
  result.metrics.gauges["scenario.model_error"] = result.modelError;

  if (hooks.metrics != nullptr) hooks.metrics->absorb(result.metrics);
  if (hooks.shardedMetrics != nullptr) {
    // Only the additive series: which shard a sweep point lands on depends
    // on scheduling, and gauges overwrite, so absorbing them would make the
    // merged snapshot schedule-dependent.
    hooks.shardedMetrics->local().absorbAdditive(result.metrics);
  }
  if (hooks.trace != nullptr) {
    if (frtrTl != nullptr && !frtrTl->empty()) {
      hooks.trace->add("frtr", *frtrTl);
      hooks.trace->addCounters("frtr", obs::sampleTimelineCounters(*frtrTl));
    }
    if (prtrTl != nullptr && !prtrTl->empty()) {
      hooks.trace->add("prtr", *prtrTl);
      hooks.trace->addCounters("prtr", obs::sampleTimelineCounters(*prtrTl));
    }
  }

  // Inline invariant verification: the captured timelines must respect the
  // platform's physical exclusivity constraints. Same abort contract as
  // the strict pre-run lint above.
  if (options.verify) {
    const obs::HostTimer timer{host.verify};
    analyze::DiagnosticSink findings;
    if (frtrTl != nullptr) verify::checkTimeline("frtr", *frtrTl, findings);
    if (prtrTl != nullptr) verify::checkTimeline("prtr", *prtrTl, findings);
    if (findings.hasErrors()) {
      throw util::DomainError{"runScenario: " + findings.firstError().format()};
    }
  }
  return result;
}

}  // namespace prtr::runtime
