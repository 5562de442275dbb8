#pragma once
/// \file executor.hpp
/// Workload executors on the simulated XD1.
///
/// FrtrExecutor reproduces the Figure-3 profile: every call pays a full
/// reconfiguration, then transfer of control, data in, compute, data out.
///
/// PrtrExecutor reproduces the Figure-4 profiles: one initial full
/// configuration, then per call either a hit (module already resident in a
/// PRR — no configuration) or a miss (a partial reconfiguration that
/// overlaps the previous task's execution when look-ahead/prefetching
/// identified it in time). Partial bitstreams share the host->FPGA channel
/// with payload data, so a pending configuration may only start once the
/// current call's input transfer has finished (paper section 4.1).

#include <functional>
#include <memory>
#include <optional>

#include "bitstream/library.hpp"
#include "model/calibration.hpp"
#include "runtime/cache.hpp"
#include "runtime/lanes.hpp"
#include "runtime/prefetch.hpp"
#include "runtime/report.hpp"
#include "sim/trace.hpp"
#include "tasks/workload.hpp"
#include "xd1/node.hpp"

namespace prtr::runtime {

/// How the PRTR executor learns what to configure ahead of time.
enum class PrepareSource : std::uint8_t {
  kNone,        ///< configure strictly on demand (no overlap)
  kQueue,       ///< peek at the next queued call (perfect knowledge)
  kPrefetcher,  ///< ask the Prefetcher (may guess wrong)
};

/// Options of the FRTR and PRTR executors (HwSwOptions and DynamicOptions
/// configure the other two).
struct ExecutorOptions {
  model::ConfigTimeBasis basis = model::ConfigTimeBasis::kMeasured;
  util::Time tControl = util::Time::microseconds(10);
  /// Paper experiment mode: "always reconfigures the called tasks"
  /// (H = 0, M = 1) even when the module is still resident.
  bool forceMiss = false;
  PrepareSource prepare = PrepareSource::kQueue;
  sim::Timeline* timeline = nullptr;  ///< optional Gantt tracing
};

/// `node`'s contended link transfers and aborted ICAP loads so far.
[[nodiscard]] LoadCensus loadCensus(const xd1::Node& node) noexcept;

/// `t` in picoseconds as a counter value (negative clamps to 0): the one
/// conversion behind every runtime `*_ps` counter.
[[nodiscard]] std::uint64_t asCount(util::Time t) noexcept;

/// Writes the counters every run-end scrape shares into `out`:
/// sim.events_processed, sim.time_ps, config.icap.{loads,bytes_written,
/// contention_ps} and config.vendor_api.{loads,bytes_written} of `node`.
/// A scrape writes each name once, straight into the snapshot's maps.
void scrapeNodeCounters(xd1::Node& node, obs::MetricsSnapshot& out);

/// The one run driver: resets `report` to an empty `executor` report, runs
/// `body` (an executor's not-yet-started execute coroutine) on `node`'s
/// simulator to completion, stamps the simulated total, and freezes the
/// run's observability counters into `report.metrics` (sim kernel,
/// configuration machinery, `cache` if non-null, and the executor's own
/// accounting under `executor.<metricsName>.*`, the stable names of
/// src/obs/README.md) and `node`'s loadCensus into `report.census`.
void runExecution(xd1::Node& node, ExecutionReport& report,
                  std::string executor, const std::string& metricsName,
                  const ConfigCache* cache, sim::Process body);

/// Full-device configuration: the raw SelectMap estimate under the
/// estimated basis, else the node's Manager load (which applies the node's
/// recovery policy). Callers keep their own accounting.
sim::Process fullConfigure(xd1::Node& node, bitstream::Library& library,
                           model::ConfigTimeBasis basis);

/// Partial configuration of `fn` into PRR `prr`, chosen the same way as
/// fullConfigure; the ladder's fallback streams (full-PRR reload, full
/// device) are resolved only when the recovery policy can climb. Records a
/// "partial(<fn>)" span on `trace`'s config lane when `trace` is non-null
/// and enabled.
sim::Process partialConfigure(xd1::Node& node, bitstream::Library& library,
                              model::ConfigTimeBasis basis, std::size_t prr,
                              const tasks::HwFunction& fn,
                              TimelineRecorder* trace);

/// The Figure-2 tail of one hardware call once its module is resident:
/// transfer of control, data in, compute, data out. Writes the four phase
/// times into `record`. With a non-null, enabled `trace` it records the
/// HT-in, compute and HT-out spans; the compute span goes on PRR<`prr`>'s
/// lane, or on the FPGA lane when `prr` is empty. `afterInput` runs the
/// instant the input transfer ends, before compute: the host->FPGA channel
/// is free again, so PRTR starts the next call's configuration there
/// (paper section 4.1).
sim::Process runCall(xd1::Node& node, const tasks::TaskCall& call,
                     const tasks::HwFunction& fn, util::Time tControl,
                     CallRecord& record, TimelineRecorder* trace = nullptr,
                     std::optional<std::size_t> prr = std::nullopt,
                     std::function<void()> afterInput = {});

/// Full run-time reconfiguration baseline (Figure 3).
class FrtrExecutor {
 public:
  FrtrExecutor(xd1::Node& node, const tasks::FunctionRegistry& registry,
               bitstream::Library& library, ExecutorOptions options);

  /// Executes `workload` to completion on the node's simulator and returns
  /// the report. Expects a fresh simulator/node per run.
  [[nodiscard]] ExecutionReport run(const tasks::Workload& workload);

 private:
  sim::Process execute(const tasks::Workload& workload);

  xd1::Node* node_;
  const tasks::FunctionRegistry* registry_;
  bitstream::Library* library_;
  ExecutorOptions options_;
  TimelineRecorder trace_;
  ExecutionReport report_;
};

/// Partial run-time reconfiguration executor (Figure 4).
class PrtrExecutor {
 public:
  PrtrExecutor(xd1::Node& node, const tasks::FunctionRegistry& registry,
               bitstream::Library& library, ConfigCache& cache,
               Prefetcher& prefetcher, ExecutorOptions options);

  [[nodiscard]] ExecutionReport run(const tasks::Workload& workload);

 private:
  /// In-flight ahead-of-time preparation for one upcoming call.
  struct Prep {
    std::size_t callIndex = 0;
    ModuleId module = 0;       ///< module being prepared
    bool finished = false;
    bool configIssued = false; ///< a partial configuration was performed
    std::optional<std::size_t> slot;
    std::unique_ptr<sim::Condition> done;
  };

  sim::Process execute(const tasks::Workload& workload);
  sim::Process prepareProcess(ModuleId module);
  sim::Process ensureResident(std::size_t callIndex, const tasks::HwFunction& fn);
  void startPrepare(std::size_t nextCallIndex, const tasks::Workload& workload);

  xd1::Node* node_;
  const tasks::FunctionRegistry* registry_;
  bitstream::Library* library_;
  ConfigCache* cache_;
  Prefetcher* prefetcher_;
  ExecutorOptions options_;
  TimelineRecorder trace_;
  ExecutionReport report_;
  std::optional<std::size_t> executingPrr_;
  std::unique_ptr<Prep> prep_;
  std::size_t roundRobinSlot_ = 0;  ///< forceMiss slot rotation
};

}  // namespace prtr::runtime
