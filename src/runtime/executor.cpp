#include "runtime/executor.hpp"

#include <cctype>
#include <string>

#include "config/port.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace prtr::runtime {

std::uint64_t asCount(util::Time t) noexcept {
  return t.ps() > 0 ? static_cast<std::uint64_t>(t.ps()) : 0;
}

void scrapeNodeCounters(xd1::Node& node, obs::MetricsSnapshot& out) {
  auto& c = out.counters;
  c["sim.events_processed"] = node.sim().eventsProcessed();
  c["sim.time_ps"] = asCount(node.sim().now());
  c["config.icap.loads"] = node.icap().loadsPerformed();
  c["config.icap.bytes_written"] = node.icap().bytesWritten();
  c["config.icap.contention_ps"] = asCount(node.icap().contentionTime());
  c["config.vendor_api.loads"] = node.vendorApi().loadsPerformed();
  c["config.vendor_api.bytes_written"] = node.vendorApi().bytesWritten();
}

namespace {

/// Freezes a finished run's counters into `report.metrics` and `node`'s
/// loadCensus into `report.census` (see runExecution).
void scrapeExecutionMetrics(ExecutionReport& report, xd1::Node& node,
                            const std::string& executorName,
                            const ConfigCache* cache) {
  obs::MetricsSnapshot& out = report.metrics;
  auto& c = out.counters;
  scrapeNodeCounters(node, out);
  c["config.vendor_api.rejects"] = node.vendorApi().rejectedLoads();
  c["config.full_configs"] = node.manager().fullConfigCount();
  c["config.partial_configs"] = node.manager().partialConfigCount();

  // Fault/recovery counters only appear when the fault layer is in play, so
  // healthy baselines keep their pre-existing snapshot byte-for-byte.
  if (node.injector() != nullptr) {
    const fault::Injector& injector = *node.injector();
    for (std::size_t k = 0; k < fault::kFaultKindCount; ++k) {
      const auto kind = static_cast<fault::FaultKind>(k);
      c[std::string("fault.injected.") + fault::metricSuffix(kind)] =
          injector.injected(kind);
    }
    c["fault.injected.total"] = injector.totalInjected();
  }
  if (node.manager().recoveryPolicy().enabled) {
    const config::RecoveryStats& rs = node.manager().recoveryStats();
    c["recovery.requests"] = rs.requests;
    c["recovery.attempts"] = rs.attempts;
    c["recovery.retries"] = rs.retries;
    c["recovery.faults_absorbed"] = rs.faultsAbsorbed;
    c["recovery.verifications"] = rs.verifications;
    c["recovery.verify_failures"] = rs.verifyFailures;
    c["recovery.frame_repairs"] = rs.frameRepairs;
    c["recovery.escalations"] = rs.escalations;
    c["recovery.full_device_fallbacks"] = rs.fullDeviceFallbacks;
    c["recovery.degraded_to"] = static_cast<std::uint64_t>(rs.degradedTo);
    c["recovery.backoff_ps"] = asCount(rs.backoffTime);
    c["recovery.verify_ps"] = asCount(rs.verifyTime);
    c["recovery.repair_ps"] = asCount(rs.repairTime);
    // Full ladder-depth distribution: one counter per rung, plus a histogram
    // whose observations are the rung indices every recovering load landed
    // on — so merged snapshots expose p50/p95 degradation depth, not just
    // the worst-rung scalar above.
    for (std::size_t r = 0; r < config::kRecoveryRungCount; ++r) {
      if (rs.landedOnRung[r] == 0) continue;
      const auto rung = static_cast<config::RecoveryRung>(r);
      c[std::string("recovery.landed.") + config::metricSuffix(rung)] =
          rs.landedOnRung[r];
      obs::HistogramSummary& depth = out.histograms["recovery.ladder_depth"];
      for (std::uint64_t n = 0; n < rs.landedOnRung[r]; ++n) {
        depth.observe(static_cast<std::int64_t>(r));
      }
    }
  }

  if (cache != nullptr) {
    std::string base = "cache." + cache->policyName() + ".";
    for (char& ch : base) {
      ch = static_cast<char>(std::tolower(static_cast<unsigned char>(ch)));
    }
    c[base + "hits"] = cache->stats().hits;
    c[base + "misses"] = cache->stats().misses;
    c[base + "evictions"] = cache->stats().evictions;
  }

  const std::string ex = "executor." + executorName + ".";
  c[ex + "calls"] = report.calls;
  c[ex + "configurations"] = report.configurations;
  c[ex + "prefetch_issued"] = report.prefetchIssued;
  c[ex + "prefetch_wrong"] = report.prefetchWrong;
  c[ex + "total_ps"] = asCount(report.total);
  c[ex + "initial_config_ps"] = asCount(report.initialConfig);
  c[ex + "stall_ps"] = asCount(report.configStall);
  c[ex + "decision_ps"] = asCount(report.decisionTime);
  c[ex + "control_ps"] = asCount(report.controlTime);
  c[ex + "input_ps"] = asCount(report.inputTime);
  c[ex + "compute_ps"] = asCount(report.computeTime);
  c[ex + "output_ps"] = asCount(report.outputTime);
  report.census = loadCensus(node);
}

}  // namespace

LoadCensus loadCensus(const xd1::Node& node) noexcept {
  return LoadCensus{.contendedIn = node.linkIn().contendedTransfers(),
                    .contendedOut = node.linkOut().contendedTransfers(),
                    .abortedLoads = node.icap().abortedLoads()};
}

void runExecution(xd1::Node& node, ExecutionReport& report,
                  std::string executor, const std::string& metricsName,
                  const ConfigCache* cache, sim::Process body) {
  report = ExecutionReport{};
  report.executor = std::move(executor);
  auto& sim = node.sim();
  const util::Time start = sim.now();
  sim.spawn(std::move(body));
  sim.run();
  report.total = sim.now() - start;
  scrapeExecutionMetrics(report, node, metricsName, cache);
}

sim::Process fullConfigure(xd1::Node& node, bitstream::Library& library,
                           model::ConfigTimeBasis basis) {
  if (basis == model::ConfigTimeBasis::kEstimated) {
    co_await node.sim().delay(config::makeSelectMap().transferTime(
        node.device().geometry().fullBitstreamBytes()));
  } else {
    co_await node.manager().fullConfigure(library.full());
  }
}

sim::Process partialConfigure(xd1::Node& node, bitstream::Library& library,
                              model::ConfigTimeBasis basis, std::size_t prr,
                              const tasks::HwFunction& fn,
                              TimelineRecorder* trace) {
  auto& sim = node.sim();
  const util::Time start = sim.now();
  if (basis == model::ConfigTimeBasis::kEstimated) {
    co_await sim.delay(config::makeSelectMap().transferTime(
        node.floorplan().prr(prr).partialBitstreamBytes(node.device())));
  } else {
    // The ladder's fallback streams are only resolved when the policy can
    // climb, so a load that cannot escalate builds and looks up nothing
    // beyond its module partial.
    const bitstream::Bitstream& stream = library.modulePartial(prr, fn.id);
    const config::RecoveryPolicy& policy = node.manager().recoveryPolicy();
    config::RecoveryStreams fallbacks;
    if (policy.enabled && policy.ladder) {
      fallbacks.fullPrr = &library.prrReload(prr, fn.id);
      fallbacks.fullDevice = &library.full();
    }
    co_await node.manager().loadModule(prr, fn.id, stream, fallbacks);
  }
  if (trace != nullptr && trace->enabled()) {
    trace->record(trace->config, trace->label("partial(" + fn.name + ")"), 'P',
                  start, sim.now());
  }
}

sim::Process runCall(xd1::Node& node, const tasks::TaskCall& call,
                     const tasks::HwFunction& fn, util::Time tControl,
                     CallRecord& record, TimelineRecorder* trace,
                     std::optional<std::size_t> prr,
                     std::function<void()> afterInput) {
  auto& sim = node.sim();
  const bool tracing = trace != nullptr && trace->enabled();

  util::Time mark = sim.now();
  co_await sim.delay(tControl);
  record.control = sim.now() - mark;

  mark = sim.now();
  co_await node.linkIn().transfer(call.dataBytes);
  record.input = sim.now() - mark;
  if (tracing) trace->record(trace->htIn, trace->dataIn, '>', mark, sim.now());
  if (afterInput) afterInput();

  mark = sim.now();
  co_await sim.delay(fn.computeTime(call.dataBytes));
  record.compute = sim.now() - mark;
  if (tracing) {
    trace->record(prr ? trace->prrLane(*prr) : trace->fpga,
                  trace->label(fn.name), '#', mark, sim.now());
  }

  mark = sim.now();
  co_await node.linkOut().transfer(fn.outputBytes(call.dataBytes));
  record.output = sim.now() - mark;
  if (tracing) {
    trace->record(trace->htOut, trace->dataOut, '<', mark, sim.now());
  }
}

// ---------------------------------------------------------------- FRTR --

FrtrExecutor::FrtrExecutor(xd1::Node& node,
                           const tasks::FunctionRegistry& registry,
                           bitstream::Library& library, ExecutorOptions options)
    : node_(&node),
      registry_(&registry),
      library_(&library),
      options_(options),
      trace_(options.timeline) {}

sim::Process FrtrExecutor::execute(const tasks::Workload& workload) {
  auto& sim = node_->sim();
  for (const tasks::TaskCall& call : workload.calls) {
    const tasks::HwFunction& fn = registry_->at(call.functionIndex);
    // FRTR reloads the whole device for every task (Figure 3).
    const util::Time start = sim.now();
    co_await fullConfigure(*node_, *library_, options_.basis);
    ++report_.configurations;
    report_.configStall += sim.now() - start;
    if (trace_.enabled()) {
      trace_.record(trace_.config, trace_.fullConfig, 'F', start, sim.now());
    }
    CallRecord record;
    co_await runCall(*node_, call, fn, options_.tControl, record, &trace_);
    report_.add(record);
  }
}

ExecutionReport FrtrExecutor::run(const tasks::Workload& workload) {
  node_->manager().setRecoveryTimeline(options_.timeline);
  runExecution(*node_, report_, "FRTR", "frtr", nullptr, execute(workload));
  return report_;
}

// ---------------------------------------------------------------- PRTR --

PrtrExecutor::PrtrExecutor(xd1::Node& node,
                           const tasks::FunctionRegistry& registry,
                           bitstream::Library& library, ConfigCache& cache,
                           Prefetcher& prefetcher, ExecutorOptions options)
    : node_(&node),
      registry_(&registry),
      library_(&library),
      cache_(&cache),
      prefetcher_(&prefetcher),
      options_(options),
      trace_(options.timeline) {
  util::require(cache.slotCount() == node.floorplan().prrCount(),
                "PrtrExecutor: cache slots must match the PRR count");
}

sim::Process PrtrExecutor::prepareProcess(ModuleId module) {
  auto& sim = node_->sim();
  Prep* prep = prep_.get();
  const util::Time decisionStart = sim.now();
  co_await sim.delay(prefetcher_->decisionLatency());
  report_.decisionTime += sim.now() - decisionStart;

  const bool resident = cache_->lookup(module).has_value();
  if (!options_.forceMiss && resident) {
    prep->finished = true;
    prep->done->notifyAll();
    co_return;
  }

  std::optional<std::size_t> slot;
  if (options_.forceMiss) {
    // Rotate over PRRs, skipping the one executing the current task.
    for (std::size_t attempt = 0; attempt < cache_->slotCount(); ++attempt) {
      const std::size_t candidate = roundRobinSlot_ % cache_->slotCount();
      roundRobinSlot_ = candidate + 1;
      if (candidate != executingPrr_) {
        slot = candidate;
        break;
      }
    }
  } else {
    slot = cache_->chooseSlot(module, executingPrr_);
  }
  if (!slot) {
    // No safe PRR (e.g. single-PRR layout while a task runs): fall back to
    // on-demand configuration when the call is admitted.
    prep->finished = true;
    prep->done->notifyAll();
    co_return;
  }

  prep->slot = slot;
  prep->configIssued = true;
  ++report_.prefetchIssued;
  co_await partialConfigure(*node_, *library_, options_.basis, *slot,
                            registry_->byId(module), &trace_);
  cache_->install(*slot, module);
  prep->finished = true;
  prep->done->notifyAll();
}

void PrtrExecutor::startPrepare(std::size_t nextCallIndex,
                                const tasks::Workload& workload) {
  std::optional<ModuleId> predicted;
  switch (options_.prepare) {
    case PrepareSource::kNone:
      return;
    case PrepareSource::kQueue:
      predicted = registry_->at(workload.calls[nextCallIndex].functionIndex).id;
      break;
    case PrepareSource::kPrefetcher:
      predicted = prefetcher_->predictNext();
      break;
  }
  if (!predicted) return;
  prep_ = std::make_unique<Prep>();
  prep_->callIndex = nextCallIndex;
  prep_->module = *predicted;
  prep_->done = std::make_unique<sim::Condition>(node_->sim());
  node_->sim().spawn(prepareProcess(*predicted));
}

sim::Process PrtrExecutor::ensureResident(std::size_t callIndex,
                                          const tasks::HwFunction& fn) {
  auto& sim = node_->sim();

  bool satisfied = false;
  bool configured = false;
  if (prep_ && prep_->callIndex == callIndex) {
    // Wait for the in-flight preparation (even a wrong guess: it owns the
    // configuration port and possibly the slot we need).
    while (!prep_->finished) {
      const util::Time waitStart = sim.now();
      co_await prep_->done->wait();
      report_.configStall += sim.now() - waitStart;
    }
    if (prep_->module == fn.id) {
      satisfied = prep_->slot.has_value() ||
                  (!options_.forceMiss && cache_->lookup(fn.id).has_value());
      configured = prep_->configIssued;
    } else if (prep_->configIssued) {
      ++report_.prefetchWrong;
    }
    prep_.reset();
  }

  if (!satisfied) {
    // On-demand path: decision, then configure if (still) not resident.
    const util::Time decisionStart = sim.now();
    co_await sim.delay(prefetcher_->decisionLatency());
    report_.decisionTime += sim.now() - decisionStart;

    if (!options_.forceMiss && cache_->lookup(fn.id).has_value()) {
      satisfied = true;
    } else {
      std::optional<std::size_t> slot;
      if (options_.forceMiss) {
        slot = roundRobinSlot_ % cache_->slotCount();
        roundRobinSlot_ = *slot + 1;
      } else {
        slot = cache_->chooseSlot(fn.id, std::nullopt);
      }
      util::require(slot.has_value(),
                    "PrtrExecutor: no PRR available for on-demand load");
      const util::Time stallStart = sim.now();
      co_await partialConfigure(*node_, *library_, options_.basis, *slot, fn,
                                &trace_);
      cache_->install(*slot, fn.id);
      report_.configStall += sim.now() - stallStart;
      configured = true;
    }
  }

  if (configured) ++report_.configurations;
  // Cache stats (hit ratio bookkeeping) track residency at admission.
  if (!options_.forceMiss) {
    (void)cache_->access(fn.id);
  }
}

sim::Process PrtrExecutor::execute(const tasks::Workload& workload) {
  // The one initial full configuration: the leading "1" of equation (5).
  auto& sim = node_->sim();
  const util::Time start = sim.now();
  co_await fullConfigure(*node_, *library_, options_.basis);
  cache_->invalidateAll();
  report_.initialConfig += sim.now() - start;
  if (trace_.enabled()) {
    trace_.record(trace_.config, trace_.initialFullConfig, 'F', start,
                  sim.now());
  }

  for (std::size_t i = 0; i < workload.calls.size(); ++i) {
    const tasks::TaskCall& call = workload.calls[i];
    const tasks::HwFunction& fn = registry_->at(call.functionIndex);

    cache_->onCallBoundary(i);
    co_await ensureResident(i, fn);
    prefetcher_->observe(fn.id);
    // Slot contents are updated by install() in every mode, so the lookup
    // also resolves the executing PRR under forceMiss.
    executingPrr_ = cache_->lookup(fn.id);

    // Once the input channel is free, overlap the next call's configuration
    // with the remainder of this task (paper section 4.1).
    std::function<void()> prepareNext;
    if (i + 1 < workload.calls.size()) {
      prepareNext = [this, i, &workload] { startPrepare(i + 1, workload); };
    }
    CallRecord record;
    co_await runCall(*node_, call, fn, options_.tControl, record, &trace_,
                     executingPrr_.value_or(0), std::move(prepareNext));
    executingPrr_.reset();
    report_.add(record);
  }
}

ExecutionReport PrtrExecutor::run(const tasks::Workload& workload) {
  node_->manager().setRecoveryTimeline(options_.timeline);
  roundRobinSlot_ = 0;
  executingPrr_.reset();
  prep_.reset();
  runExecution(*node_, report_, "PRTR", "prtr", cache_, execute(workload));
  return report_;
}

}  // namespace prtr::runtime
