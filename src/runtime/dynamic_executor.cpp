#include "runtime/dynamic_executor.hpp"

#include <algorithm>
#include <cmath>

#include "runtime/executor.hpp"
#include "util/error.hpp"

namespace prtr::runtime {

DynamicPrtrExecutor::DynamicPrtrExecutor(xd1::Node& node,
                                         const tasks::FunctionRegistry& registry,
                                         DynamicOptions options)
    : node_(&node),
      registry_(&registry),
      options_(options),
      allocator_(node.device(), options.firstColumn, options.columnCount),
      builder_(node.device()) {
  // The managed range must be signature-homogeneous so relocation moves
  // are always legal and every function fits anywhere.
  const auto columns = node.device().geometry().columns();
  for (std::size_t c = options.firstColumn;
       c < options.firstColumn + options.columnCount; ++c) {
    util::require(columns[c].kind == fabric::ColumnKind::kClb,
                  "DynamicPrtrExecutor: managed range must be CLB-only");
  }
}

std::size_t DynamicPrtrExecutor::widthFor(const tasks::HwFunction& fn) const {
  const auto columns = node_->device().geometry().columns();
  const fabric::ResourceVec perColumn =
      columns[options_.firstColumn].resources;
  const double demand = std::max(fn.resources.luts, fn.resources.ffs);
  const double capacity = std::max<std::uint32_t>(perColumn.luts, 1);
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(demand / capacity)));
}

const bitstream::Bitstream& DynamicPrtrExecutor::streamFor(
    const fabric::Region& region, const tasks::HwFunction& fn) {
  const auto key =
      std::make_tuple(fn.id, region.firstColumn(), region.columnCount());
  const auto it = streamCache_.find(key);
  if (it != streamCache_.end()) return it->second;
  const double occupancy = std::clamp(
      region.resources(node_->device()).utilization(fn.resources), 0.05, 1.0);
  return streamCache_
      .emplace(key, builder_.buildModulePartial(region, fn.id, occupancy))
      .first->second;
}

sim::Process DynamicPrtrExecutor::fullLoad() {
  auto& sim = node_->sim();
  const util::Time start = sim.now();
  if (!fullStream_) {
    fullStream_ =
        std::make_unique<bitstream::Bitstream>(builder_.buildFull(1));
  }
  config::ApiStatus status = config::ApiStatus::kOk;
  co_await node_->vendorApi().load(*fullStream_, status);
  util::require(status == config::ApiStatus::kOk,
                "DynamicPrtrExecutor: initial configuration rejected");
  report_.base.initialConfig += sim.now() - start;
}

sim::Process DynamicPrtrExecutor::configure(const fabric::Region& region,
                                            const tasks::HwFunction& fn) {
  const util::Time start = node_->sim().now();
  co_await node_->icap().load(streamFor(region, fn));
  report_.base.configStall += node_->sim().now() - start;
  ++report_.base.configurations;
}

sim::Process DynamicPrtrExecutor::defragWithCost() {
  ++report_.defragRuns;
  const auto moves = allocator_.defragment();
  for (const fabric::Move& move : moves) {
    ++report_.defragMoves;
    // Each relocation re-streams the module at its new address; model the
    // cost as the ICAP drain of a partial stream of the moved width.
    const util::Time cost = node_->icap().drainTime(allocator_.moveCost(move));
    const util::Time start = node_->sim().now();
    co_await node_->sim().delay(cost);
    report_.defragTime += node_->sim().now() - start;
  }
  // Placements keep allocation ids; refresh their column positions.
  for (auto& [module, placement] : placements_) {
    const auto it = allocator_.allocations().find(placement.allocationId);
    if (it != allocator_.allocations().end()) placement.allocation = it->second;
  }
}

void DynamicPrtrExecutor::evictUntilFits(std::size_t width) {
  while (allocator_.largestFreeBlock() < width && !placements_.empty()) {
    auto victim = placements_.begin();
    for (auto it = placements_.begin(); it != placements_.end(); ++it) {
      if (it->second.lastUse < victim->second.lastUse) victim = it;
    }
    allocator_.release(victim->second.allocationId);
    placements_.erase(victim);
    ++report_.evictions;
  }
}

sim::Process DynamicPrtrExecutor::execute(const tasks::Workload& workload) {
  co_await fullLoad();

  double occupiedSum = 0.0;
  for (const tasks::TaskCall& call : workload.calls) {
    const tasks::HwFunction& fn = registry_->at(call.functionIndex);

    const auto placed = placements_.find(fn.id);
    if (placed == placements_.end()) {
      const std::size_t width = widthFor(fn);
      auto allocation = allocator_.allocate(width, options_.fitPolicy, fn.name);
      if (!allocation && options_.defragOnDemand) {
        co_await defragWithCost();
        allocation = allocator_.allocate(width, options_.fitPolicy, fn.name);
      }
      if (!allocation) {
        evictUntilFits(width);
        if (options_.defragOnDemand &&
            allocator_.largestFreeBlock() < width) {
          co_await defragWithCost();
        }
        allocation = allocator_.allocate(width, options_.fitPolicy, fn.name);
      }
      util::require(allocation.has_value(),
                    "DynamicPrtrExecutor: function wider than the fabric");
      co_await configure(allocation->region(), fn);
      placements_[fn.id] = Placement{allocation->id, *allocation, ++useClock_};
    } else {
      placed->second.lastUse = ++useClock_;
    }

    CallRecord record;
    co_await runCall(*node_, call, fn, options_.tControl, record);
    report_.base.add(record);
    occupiedSum += static_cast<double>(allocator_.managedColumns() -
                                       allocator_.freeColumns());
  }
  if (!workload.calls.empty()) {
    report_.meanOccupiedColumns =
        occupiedSum / static_cast<double>(workload.calls.size());
  }
}

DynamicReport DynamicPrtrExecutor::run(const tasks::Workload& workload) {
  report_ = DynamicReport{};
  runExecution(*node_, report_.base, "PRTR(dynamic)", "dynamic", nullptr,
               execute(workload));
  obs::MetricsSnapshot& m = report_.base.metrics;
  m.counters["dynamic.evictions"] = report_.evictions;
  m.counters["dynamic.defrag_runs"] = report_.defragRuns;
  m.counters["dynamic.defrag_moves"] = report_.defragMoves;
  m.counters["dynamic.defrag_ps"] = asCount(report_.defragTime);
  m.gauges["dynamic.mean_occupied_columns"] = report_.meanOccupiedColumns;
  return report_;
}

}  // namespace prtr::runtime
