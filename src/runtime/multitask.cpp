#include "runtime/multitask.hpp"

#include <optional>
#include <sstream>

#include "exec/artifact_cache.hpp"
#include "runtime/executor.hpp"
#include "runtime/lanes.hpp"
#include "sim/sync.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace prtr::runtime {

std::string MultitaskReport::toString() const {
  std::ostringstream os;
  os << "multitask: " << calls << " calls, makespan " << makespan.toString()
     << ", H=" << hitRatio() << ", " << configurations << " configs\n";
  for (const AppStats& app : apps) {
    os << "  " << app.name << ": " << app.completed << " done, latency mean "
       << util::Time::seconds(app.latencySeconds.mean()).toString() << " (max "
       << util::Time::seconds(app.latencySeconds.max()).toString()
       << "), queueing mean "
       << util::Time::seconds(app.queueingSeconds.mean()).toString() << '\n';
  }
  return os.str();
}

namespace {

/// Shared scheduler state living for one runMultitask invocation.
class Scheduler {
 public:
  Scheduler(xd1::Node& node, const tasks::FunctionRegistry& registry,
            bitstream::Library& library, const MultitaskOptions& options,
            MultitaskReport& report)
      : node_(node),
        registry_(registry),
        library_(library),
        options_(options),
        report_(report),
        slots_(node.floorplan().prrCount()),
        trace_(options.hooks.timeline),
        slotFreed_(node.sim()),
        ready_(node.sim()),
        done_(node.sim()) {}

  /// Initial full configuration; apps hold their arrivals until it ends.
  sim::Process setup() {
    co_await fullConfigure(node_, library_, model::ConfigTimeBasis::kMeasured);
    isReady_ = true;
    ready_.notifyAll();
  }

  /// Paces one application's arrivals; each call runs as its own process.
  sim::Process runApp(const AppSpec& app, AppStats& stats, util::Rng rng) {
    while (!isReady_) co_await ready_.wait();
    for (const tasks::TaskCall& call : app.workload.calls) {
      co_await node_.sim().delay(
          util::Time::seconds(rng.exponential(app.meanInterArrival.toSeconds())));
      done_.add(1);
      node_.sim().spawn(handleCall(call, stats));
    }
  }

 private:
  struct Slot {
    bool busy = false;
    std::optional<bitstream::ModuleId> module;
    std::uint64_t lastUse = 0;
  };

  /// Grants a PRR for `fn`: a free slot already holding the module is a
  /// hit; otherwise the least-recently-used free slot is reconfigured.
  sim::Process handleCall(tasks::TaskCall call, AppStats& stats) {
    auto& sim = node_.sim();
    const tasks::HwFunction& fn = registry_.at(call.functionIndex);
    const util::Time arrival = sim.now();
    ++report_.calls;

    std::size_t slot = 0;
    bool hit = false;
    for (;;) {
      if (auto found = findSlot(fn.id, hit)) {
        slot = *found;
        break;
      }
      co_await slotFreed_.wait();
    }
    slots_[slot].busy = true;
    slots_[slot].lastUse = ++clock_;
    // Claim the region for the module immediately so that concurrent
    // arrivals for the same module wait for this slot instead of starting
    // a duplicate configuration elsewhere.
    slots_[slot].module = fn.id;
    const util::Time granted = sim.now();
    stats.queueingSeconds.add((granted - arrival).toSeconds());
    if (hit) ++report_.hits;

    if (!hit) {
      co_await partialConfigure(node_, library_,
                                model::ConfigTimeBasis::kMeasured, slot, fn,
                                nullptr);
      ++report_.configurations;
    }

    // The scheduler keeps per-PRR busy totals, not the phase breakdown.
    CallRecord record;
    co_await runCall(node_, call, fn, options_.tControl, record);

    slots_[slot].busy = false;
    if (trace_.enabled()) {
      trace_.record(trace_.prrLane(slot), trace_.label(fn.name),
                    hit ? '#' : 'c', granted, sim.now());
    }
    report_.prrBusyTotal += sim.now() - granted;
    stats.latencySeconds.add((sim.now() - arrival).toSeconds());
    ++stats.completed;
    slotFreed_.notifyAll();
    done_.done();
  }

  /// Slot selection with strict module affinity — a resident module has a
  /// single home region:
  ///  1. the module is resident and its slot is free -> hit;
  ///  2. the module is resident but its slot is busy -> wait for it
  ///     (cloning it elsewhere or evicting another app's module would
  ///     thrash the regions under open arrivals);
  ///  3. not resident: an empty free slot, else the LRU free slot;
  ///  4. nothing free -> wait.
  std::optional<std::size_t> findSlot(bitstream::ModuleId module, bool& hit) {
    hit = false;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].module == module) {
        if (!slots_[s].busy) {
          hit = true;
          return s;
        }
        return std::nullopt;  // affinity: wait for the module's home region
      }
    }
    std::optional<std::size_t> lru;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (slots_[s].busy) continue;
      if (!slots_[s].module.has_value()) return s;  // empty beats eviction
      if (!lru || slots_[s].lastUse < slots_[*lru].lastUse) lru = s;
    }
    return lru;
  }

  xd1::Node& node_;
  const tasks::FunctionRegistry& registry_;
  bitstream::Library& library_;
  const MultitaskOptions& options_;
  MultitaskReport& report_;
  std::vector<Slot> slots_;
  TimelineRecorder trace_;
  sim::Condition slotFreed_;
  sim::Condition ready_;
  sim::WaitGroup done_;
  bool isReady_ = false;
  std::uint64_t clock_ = 0;
};

}  // namespace

MultitaskReport runMultitask(const tasks::FunctionRegistry& registry,
                             const std::vector<AppSpec>& apps,
                             const MultitaskOptions& options) {
  util::require(!apps.empty(), "runMultitask: need at least one app");

  sim::Simulator sim;
  xd1::NodeConfig nodeConfig;
  nodeConfig.layout = options.layout;
  xd1::Node node{sim, nodeConfig};
  bitstream::Library library{
      node.floorplan(),
      registry.moduleSpecs(node.floorplan().prr(0).resources(node.device())),
      exec::cachingStreamSource(exec::ArtifactCache::global())};

  MultitaskReport report;
  report.apps.resize(apps.size());

  Scheduler scheduler{node, registry, library, options, report};
  sim.spawn(scheduler.setup());
  for (std::size_t a = 0; a < apps.size(); ++a) {
    report.apps[a].name = apps[a].name;
    sim.spawn(scheduler.runApp(apps[a], report.apps[a],
                               util::Rng{options.seed + a * 7919}));
  }
  sim.run();
  report.makespan = sim.now();
  report.census = loadCensus(node);

  obs::MetricsSnapshot& m = report.metrics;
  scrapeNodeCounters(node, m);
  m.counters["multitask.calls"] = report.calls;
  m.counters["multitask.hits"] = report.hits;
  m.counters["multitask.configurations"] = report.configurations;
  m.counters["multitask.makespan_ps"] = asCount(report.makespan);
  m.counters["multitask.prr_busy_ps"] = asCount(report.prrBusyTotal);
  m.gauges["multitask.hit_ratio"] = report.hitRatio();
  // Apps sharing a name share their series: counts add, the last mean wins.
  for (const AppStats& app : report.apps) {
    const std::string base = "multitask.app." + app.name;
    m.counters[base + ".completed"] += app.completed;
    m.gauges[base + ".latency_mean_s"] = app.latencySeconds.mean();
  }
  if (options.hooks.trace && options.hooks.timeline &&
      !options.hooks.timeline->empty()) {
    options.hooks.trace->add("multitask", *options.hooks.timeline);
  }
  return report;
}

}  // namespace prtr::runtime
