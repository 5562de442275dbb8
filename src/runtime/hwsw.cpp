#include "runtime/hwsw.hpp"

#include "model/calibration.hpp"
#include "runtime/executor.hpp"
#include "util/error.hpp"

namespace prtr::runtime {

const char* toString(Partitioning policy) noexcept {
  switch (policy) {
    case Partitioning::kAlwaysHardware: return "always-hw";
    case Partitioning::kAlwaysSoftware: return "always-sw";
    case Partitioning::kStaticThreshold: return "static-threshold";
    case Partitioning::kAdaptive: return "adaptive";
  }
  return "?";
}

HwSwExecutor::HwSwExecutor(xd1::Node& node,
                           const tasks::FunctionRegistry& registry,
                           bitstream::Library& library, ConfigCache& cache,
                           HwSwOptions options)
    : node_(&node),
      registry_(&registry),
      library_(&library),
      cache_(&cache),
      options_(options) {
  util::require(cache.slotCount() == node.floorplan().prrCount(),
                "HwSwExecutor: cache slots must match the PRR count");
}

util::Time HwSwExecutor::hardwareCost(const tasks::TaskCall& call,
                                      bool resident) const {
  const tasks::HwFunction& fn = registry_->at(call.functionIndex);
  util::Time cost = options_.tControl +
                    model::taskTime(*node_, fn, call.dataBytes);
  if (!resident) {
    cost += node_->icap().drainTime(
        node_->floorplan().prr(0).partialBitstreamBytes(node_->device()));
  }
  return cost;
}

util::Time HwSwExecutor::softwareCost(const tasks::TaskCall& call) const {
  return options_.cpu.computeTime(call.dataBytes);
}

bool HwSwExecutor::placeInHardware(const tasks::TaskCall& call) const {
  const tasks::HwFunction& fn = registry_->at(call.functionIndex);
  switch (options_.policy) {
    case Partitioning::kAlwaysHardware:
      return true;
    case Partitioning::kAlwaysSoftware:
      return false;
    case Partitioning::kStaticThreshold:
      // Hardware only when it wins even while paying a configuration.
      return hardwareCost(call, /*resident=*/false) < softwareCost(call);
    case Partitioning::kAdaptive: {
      const bool resident = cache_->lookup(fn.id).has_value();
      return hardwareCost(call, resident) < softwareCost(call);
    }
  }
  return true;
}

sim::Process HwSwExecutor::execute(const tasks::Workload& workload) {
  auto& sim = node_->sim();
  // The accelerator powers up lazily: the initial full configuration is
  // paid before the first call actually placed in hardware.
  bool deviceReady = false;

  for (std::size_t i = 0; i < workload.calls.size(); ++i) {
    const tasks::TaskCall& call = workload.calls[i];
    const tasks::HwFunction& fn = registry_->at(call.functionIndex);
    cache_->onCallBoundary(i);

    if (!placeInHardware(call)) {
      // Software path: data stays in host memory; the CPU crunches it, so
      // the call adds no control or link time.
      const util::Time start = sim.now();
      co_await sim.delay(softwareCost(call));
      report_.softwareTime += sim.now() - start;
      ++report_.softwareCalls;
      report_.base.add(CallRecord{});
      continue;
    }

    // Hardware path: configure on miss (measured basis), then the Figure-2
    // sequence.
    if (!deviceReady) {
      const util::Time start = sim.now();
      co_await fullConfigure(*node_, *library_,
                             model::ConfigTimeBasis::kMeasured);
      cache_->invalidateAll();
      report_.base.initialConfig += sim.now() - start;
      deviceReady = true;
    }
    if (!cache_->lookup(fn.id).has_value()) {
      const auto slot = cache_->chooseSlot(fn.id, std::nullopt);
      util::require(slot.has_value(), "HwSwExecutor: no PRR available");
      const util::Time stallStart = sim.now();
      co_await partialConfigure(*node_, *library_,
                                model::ConfigTimeBasis::kMeasured, *slot, fn,
                                nullptr);
      cache_->install(*slot, fn.id);
      report_.base.configStall += sim.now() - stallStart;
      ++report_.base.configurations;
    }
    (void)cache_->access(fn.id);

    CallRecord record;
    co_await runCall(*node_, call, fn, options_.tControl, record);
    report_.base.add(record);
    ++report_.hardwareCalls;
  }
}

HwSwReport HwSwExecutor::run(const tasks::Workload& workload) {
  report_ = HwSwReport{};
  runExecution(*node_, report_.base,
               "HW/SW(" + std::string{toString(options_.policy)} + ")", "hwsw",
               cache_, execute(workload));
  obs::MetricsSnapshot& m = report_.base.metrics;
  m.counters["hwsw.hardware_calls"] = report_.hardwareCalls;
  m.counters["hwsw.software_calls"] = report_.softwareCalls;
  m.counters["hwsw.software_ps"] = asCount(report_.softwareTime);
  return report_;
}

}  // namespace prtr::runtime
