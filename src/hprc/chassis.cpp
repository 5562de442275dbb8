#include "hprc/chassis.hpp"

#include <algorithm>
#include <sstream>

#include "exec/pool.hpp"
#include "obs/host.hpp"
#include "util/error.hpp"

namespace prtr::hprc {

const char* toString(Partition partition) noexcept {
  switch (partition) {
    case Partition::kBlock: return "block";
    case Partition::kRoundRobin: return "round-robin";
  }
  return "?";
}

double ChassisReport::balance() const noexcept {
  if (blades.empty() || makespan == util::Time::zero()) return 0.0;
  const double avg =
      totalBladeTime.toSeconds() / static_cast<double>(blades.size());
  return avg / makespan.toSeconds();
}

std::string ChassisReport::toString() const {
  std::ostringstream os;
  os << "chassis: " << blades.size() << " blades, makespan "
     << makespan.toString() << ", balance " << balance() << ", "
     << configurations << " reconfigurations\n";
  for (std::size_t i = 0; i < blades.size(); ++i) {
    os << "  blade" << i << ": " << blades[i].calls << " calls, "
       << blades[i].total.toString() << ", H=" << blades[i].hitRatio() << '\n';
  }
  return os.str();
}

std::vector<tasks::Workload> partitionWorkload(const tasks::Workload& workload,
                                               std::size_t blades,
                                               Partition partition) {
  util::require(blades >= 1, "partitionWorkload: need at least one blade");
  std::vector<tasks::Workload> shares(blades);
  for (std::size_t b = 0; b < blades; ++b) {
    shares[b].name = workload.name + "/blade" + std::to_string(b);
  }
  if (partition == Partition::kRoundRobin) {
    for (std::size_t i = 0; i < workload.calls.size(); ++i) {
      shares[i % blades].calls.push_back(workload.calls[i]);
    }
  } else {
    const std::size_t per = (workload.calls.size() + blades - 1) / blades;
    for (std::size_t b = 0; b < blades; ++b) {
      const std::size_t begin = std::min(b * per, workload.calls.size());
      const std::size_t end = std::min(begin + per, workload.calls.size());
      shares[b].calls.assign(workload.calls.begin() + static_cast<std::ptrdiff_t>(begin),
                             workload.calls.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return shares;
}

runtime::ScenarioOptions bladeScenarioOptions(
    const runtime::ScenarioOptions& scenario, std::uint64_t blade) {
  runtime::ScenarioOptions bladeOptions = scenario;
  bladeOptions.sides = runtime::ScenarioSides::kPrtrOnly;
  bladeOptions.hooks = obs::Hooks{};
  bladeOptions.faults = scenario.faults.forNode(blade);
  return bladeOptions;
}

ChassisReport runChassis(const tasks::FunctionRegistry& registry,
                         const tasks::Workload& workload,
                         const ChassisOptions& options) {
  util::require(options.blades >= 1 && options.blades <= 6,
                "runChassis: an XD1 chassis holds 1..6 blades");
  const auto shares =
      partitionWorkload(workload, options.blades, options.partition);

  const obs::HostTimer runTimer{"host.chassis.run_ns"};

  ChassisReport report;
  std::vector<std::size_t> bladeIndices(shares.size());
  for (std::size_t b = 0; b < bladeIndices.size(); ++b) bladeIndices[b] = b;
  report.blades = exec::parallelMap(
      bladeIndices,
      [&](const std::size_t blade) {
        const runtime::ScenarioOptions bladeOptions =
            bladeScenarioOptions(options.scenario, blade);
        const obs::HostTimer bladeTimer{"host.chassis.blade_ns"};
        if (shares[blade].calls.empty()) return runtime::ExecutionReport{};
        return runtime::runScenario(registry, shares[blade], bladeOptions).prtr;
      },
      exec::ForOptions{.threads = options.threads});

  // Blade snapshots fold in blade order after the barrier, each under its
  // own "bladeN." prefix.
  for (std::size_t b = 0; b < report.blades.size(); ++b) {
    const auto& blade = report.blades[b];
    report.makespan = std::max(report.makespan, blade.total);
    report.totalBladeTime += blade.total;
    report.configurations += blade.configurations;
    report.metrics.merge(blade.metrics, "blade" + std::to_string(b) + ".");
  }
  report.metrics.counters["chassis.blades"] = report.blades.size();
  report.metrics.counters["chassis.configurations"] = report.configurations;
  report.metrics.counters["chassis.makespan_ps"] =
      static_cast<std::uint64_t>(report.makespan.ps());
  report.metrics.counters["chassis.total_blade_ps"] =
      static_cast<std::uint64_t>(report.totalBladeTime.ps());
  report.metrics.gauges["chassis.balance"] = report.balance();
  return report;
}

}  // namespace prtr::hprc
