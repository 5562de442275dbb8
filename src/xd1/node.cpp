#include "xd1/node.hpp"

#include "util/error.hpp"

namespace prtr::xd1 {

const char* toString(Layout layout) noexcept {
  switch (layout) {
    case Layout::kSinglePrr: return "single-PRR";
    case Layout::kDualPrr: return "dual-PRR";
    case Layout::kQuadPrr: return "quad-PRR";
  }
  return "?";
}

namespace {

fabric::Floorplan makeLayout(Layout layout, fabric::Device device) {
  switch (layout) {
    case Layout::kSinglePrr:
      return fabric::makeSinglePrrLayout(std::move(device));
    case Layout::kDualPrr:
      return fabric::makeDualPrrLayout(std::move(device));
    case Layout::kQuadPrr:
      return fabric::makeQuadPrrLayout(std::move(device));
  }
  throw util::DomainError{"Node: unknown layout"};
}

}  // namespace

Node::Node(sim::Simulator& sim, NodeConfig config)
    : sim_(&sim), config_(config) {
  util::require(config_.linkEfficiency > 0.0 && config_.linkEfficiency <= 1.0,
                "Node: link efficiency must be in (0, 1]");
  const auto buildPlan = [this] {
    return makeLayout(config_.layout, fabric::makeXc2vp50());
  };
  floorplan_ = config_.floorplanSource
                   ? config_.floorplanSource(config_.layout, buildPlan)
                   : std::make_shared<const fabric::Floorplan>(buildPlan());

  const util::DataRate payloadRate = ioBandwidth();
  linkIn_ = std::make_unique<sim::SimplexLink>(sim, "HT-in", payloadRate,
                                               config_.linkLatency);
  linkOut_ = std::make_unique<sim::SimplexLink>(sim, "HT-out", payloadRate,
                                                config_.linkLatency);

  memory_ = std::make_unique<config::ConfigMemory>(floorplan_->device());
  api_ = std::make_unique<config::VendorApi>(sim, *memory_, config_.apiTiming);
  icap_ = std::make_unique<config::IcapController>(
      sim, *memory_, *linkIn_, config::makeIcapV2(), config_.icapTiming);
  manager_ = std::make_unique<config::Manager>(sim, *floorplan_, *api_, *icap_);
  manager_->setRecoveryPolicy(config_.recovery);

  if (config_.faults.active()) {
    injector_ = std::make_unique<fault::Injector>(config_.faults);
    injector_->attach(*linkIn_);
    injector_->attach(*linkOut_);
    injector_->attach(*icap_);
    injector_->attach(*api_);
  }

  for (int i = 0; i < 4; ++i) {
    banks_.push_back(std::make_unique<QdrBank>(sim, "bank" + std::to_string(i)));
  }
}

std::vector<std::size_t> Node::banksFor(std::size_t prrIndex) const {
  util::require(prrIndex < floorplan_->prrCount(), "Node: PRR index out of range");
  switch (config_.layout) {
    case Layout::kSinglePrr:
      return {0, 1, 2, 3};
    case Layout::kDualPrr:
      return prrIndex == 0 ? std::vector<std::size_t>{0, 1}
                           : std::vector<std::size_t>{2, 3};
    case Layout::kQuadPrr:
      return {prrIndex};
  }
  return {};
}

}  // namespace prtr::xd1
