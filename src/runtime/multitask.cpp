#include "runtime/multitask.hpp"

#include <optional>
#include <sstream>

#include "exec/artifact_cache.hpp"
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
    co_await node_.manager().fullConfigure(library_.full());
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
      co_await node_.manager().loadModule(slot, fn.id,
                                          library_.modulePartial(slot, fn.id));
      ++report_.configurations;
    }

    co_await sim.delay(options_.tControl);
    co_await node_.linkIn().transfer(call.dataBytes);
    co_await sim.delay(fn.computeTime(call.dataBytes));
    co_await node_.linkOut().transfer(fn.outputBytes(call.dataBytes));

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

  // Fixed scrape names interned once per process; the per-app names are
  // interned per distinct app name (idempotent, and the app set is tiny).
  struct Ids {
    obs::CounterId simEvents, simTimePs, icapLoads, icapBytes,
        icapContentionPs, apiLoads, apiBytes;
    obs::CounterId calls, hits, configurations, makespanPs, prrBusyPs;
    obs::GaugeId hitRatio;
  };
  static const Ids kIds = [] {
    obs::MetricTable& t = obs::MetricTable::global();
    return Ids{t.counter("sim.events_processed"),
               t.counter("sim.time_ps"),
               t.counter("config.icap.loads"),
               t.counter("config.icap.bytes_written"),
               t.counter("config.icap.contention_ps"),
               t.counter("config.vendor_api.loads"),
               t.counter("config.vendor_api.bytes_written"),
               t.counter("multitask.calls"),
               t.counter("multitask.hits"),
               t.counter("multitask.configurations"),
               t.counter("multitask.makespan_ps"),
               t.counter("multitask.prr_busy_ps"),
               t.gauge("multitask.hit_ratio")};
  }();

  obs::MetricTable& table = obs::MetricTable::global();
  obs::Registry reg;
  reg.add(kIds.simEvents, sim.eventsProcessed());
  reg.add(kIds.simTimePs, static_cast<std::uint64_t>(sim.now().ps()));
  reg.add(kIds.icapLoads, node.icap().loadsPerformed());
  reg.add(kIds.icapBytes, node.icap().bytesWritten());
  reg.add(kIds.icapContentionPs,
          static_cast<std::uint64_t>(node.icap().contentionTime().ps()));
  reg.add(kIds.apiLoads, node.vendorApi().loadsPerformed());
  reg.add(kIds.apiBytes, node.vendorApi().bytesWritten());
  reg.add(kIds.calls, report.calls);
  reg.add(kIds.hits, report.hits);
  reg.add(kIds.configurations, report.configurations);
  reg.add(kIds.makespanPs, static_cast<std::uint64_t>(report.makespan.ps()));
  reg.add(kIds.prrBusyPs,
          static_cast<std::uint64_t>(report.prrBusyTotal.ps()));
  reg.set(kIds.hitRatio, report.hitRatio());
  for (const AppStats& app : report.apps) {
    const std::string base = "multitask.app." + app.name;
    reg.add(table.counter(base + ".completed"), app.completed);
    reg.set(table.gauge(base + ".latency_mean_s"),
            app.latencySeconds.mean());
  }
  report.metrics = reg.takeSnapshot();
  if (options.hooks.metrics) options.hooks.metrics->absorb(report.metrics);
  if (options.hooks.trace && options.hooks.timeline &&
      !options.hooks.timeline->empty()) {
    options.hooks.trace->add("multitask", *options.hooks.timeline);
  }
  return report;
}

}  // namespace prtr::runtime
