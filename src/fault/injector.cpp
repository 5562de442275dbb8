#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bitstream/parser.hpp"
#include "util/error.hpp"

namespace prtr::fault {

namespace {

constexpr std::size_t idx(FaultKind kind) noexcept {
  return static_cast<std::size_t>(kind);
}

}  // namespace

Injector::Injector(const Plan& plan) : plan_(plan), rng_(plan.seed) {
  util::require(plan.linkStallRate >= 0.0 && plan.linkStallRate <= 1.0 &&
                    plan.wordFlipRate >= 0.0 && plan.wordFlipRate <= 1.0 &&
                    plan.transferTimeoutRate >= 0.0 &&
                    plan.transferTimeoutRate <= 1.0 &&
                    plan.icapAbortRate >= 0.0 && plan.icapAbortRate <= 1.0 &&
                    plan.apiRejectRate >= 0.0 && plan.apiRejectRate <= 1.0,
                "Injector: fault rates must lie in [0, 1]");
  util::require(plan.arrival != Arrival::kFixedPeriod || plan.fixedPeriod > 0,
                "Injector: fixed-schedule arrival needs a positive period");
}

std::uint64_t Injector::totalInjected() const noexcept {
  std::uint64_t total = 0;
  for (const std::uint64_t n : injected_) total += n;
  return total;
}

bool Injector::due(double rate, std::uint64_t& counter) {
  if (rate <= 0.0) return false;
  if (plan_.arrival == Arrival::kFixedPeriod) {
    return ++counter % plan_.fixedPeriod == 0;
  }
  return rng_.chance(rate);
}

std::uint64_t Injector::poisson(double mean) {
  // Knuth's multiplication method, split so exp(-mean) never underflows.
  std::uint64_t total = 0;
  while (mean > 0.0) {
    const double step = std::min(mean, 30.0);
    mean -= step;
    const double limit = std::exp(-step);
    double product = rng_.uniform();
    while (product > limit) {
      ++total;
      product *= rng_.uniform();
    }
  }
  return total;
}

void Injector::attach(sim::SimplexLink& link) {
  if (plan_.linkStallRate <= 0.0) return;
  link.setFaultHook([this](const sim::SimplexLink&, util::Bytes)
                        -> std::optional<sim::TransferFault> {
    if (!due(plan_.linkStallRate, stallCounter_)) return std::nullopt;
    ++injected_[idx(FaultKind::kLinkStall)];
    sim::TransferFault fault;
    fault.stall = plan_.stallDuration;
    return fault;
  });
}

void Injector::corruptWrites(config::ConfigMemory& memory,
                             const bitstream::ParsedStream& parsed,
                             const std::vector<std::uint32_t>* frames) {
  if (plan_.wordFlipRate <= 0.0) return;
  // Collect the frames this operation actually wrote (`frames` is sorted
  // by the repair path; null means the whole stream). Every payload is
  // frameBytes long, so no payload byte is read.
  std::vector<std::uint32_t> touched;
  for (const bitstream::FrameRun& run : parsed.frameRuns) {
    for (std::uint32_t frame = run.first; frame - run.first < run.count;
         ++frame) {
      if (frames == nullptr ||
          std::binary_search(frames->begin(), frames->end(), frame)) {
        touched.push_back(frame);
      }
    }
  }
  const std::uint32_t frameBytes = parsed.header.frameBytes;
  const std::uint64_t payloadBytes = touched.size() * std::uint64_t{frameBytes};
  if (touched.empty()) return;
  const double words = static_cast<double>(payloadBytes) / 4.0;
  std::uint64_t flips = 0;
  if (plan_.arrival == Arrival::kFixedPeriod) {
    flips = due(plan_.wordFlipRate, flipCounter_) ? 1 : 0;
  } else {
    flips = poisson(plan_.wordFlipRate * words);
  }
  for (std::uint64_t i = 0; i < flips; ++i) {
    const std::uint32_t frame = touched[rng_.below(touched.size())];
    const auto offset = static_cast<std::uint32_t>(rng_.below(frameBytes));
    const auto mask = static_cast<std::uint8_t>(1u << rng_.below(8));
    memory.injectUpset(frame, offset, mask);
    ++injected_[idx(FaultKind::kWordFlip)];
  }
}

void Injector::attach(config::IcapController& icap) {
  if (plan_.transferTimeoutRate > 0.0 || plan_.icapAbortRate > 0.0) {
    icap.setFaultHook([this](const bitstream::Bitstream&)
                          -> std::optional<config::IcapFault> {
      if (due(plan_.transferTimeoutRate, timeoutCounter_)) {
        ++injected_[idx(FaultKind::kTransferTimeout)];
        config::IcapFault fault;
        fault.completedFraction = rng_.uniform(0.05, 0.95);
        fault.abort = std::make_exception_ptr(util::FaultError{
            "injected fault: host->ICAP transfer timed out mid-stream"});
        return fault;
      }
      if (due(plan_.icapAbortRate, abortCounter_)) {
        ++injected_[idx(FaultKind::kIcapAbort)];
        config::IcapFault fault;
        fault.completedFraction = rng_.uniform(0.05, 0.95);
        fault.abort = std::make_exception_ptr(
            util::FaultError{"injected fault: ICAP aborted the load"});
        return fault;
      }
      return std::nullopt;
    });
  }
  if (plan_.wordFlipRate > 0.0) {
    icap.setWriteFaultHook([this, &icap](const bitstream::ParsedStream& parsed,
                                         const std::vector<std::uint32_t>*
                                             frames) {
      corruptWrites(icap.memory(), parsed, frames);
    });
  }
}

void Injector::attach(config::VendorApi& api) {
  if (plan_.apiRejectRate <= 0.0) return;
  api.setFaultHook([this](const bitstream::Bitstream&) {
    if (!due(plan_.apiRejectRate, rejectCounter_)) return false;
    ++injected_[idx(FaultKind::kApiReject)];
    return true;
  });
}

}  // namespace prtr::fault
