#pragma once
/// \file hwsw.hpp
/// HW/SW codesign execution — the inclusion the paper explicitly deferred:
/// "Software tasks were excluded from our analysis and we preserve this
/// inclusion for future considerations" (section 6).
///
/// Every hardware function also has a software implementation running on
/// the blade's Opteron. A partitioning policy decides, call by call,
/// whether to run in fabric (paying reconfiguration when the module is not
/// resident) or in software (paying the slower per-byte rate but no
/// configuration). The interesting regime is exactly the paper's: when
/// configuration overhead dominates, software execution can win even
/// against a 7x-faster accelerator.

#include <cstdint>
#include <string>

#include "bitstream/library.hpp"
#include "runtime/cache.hpp"
#include "runtime/report.hpp"
#include "tasks/workload.hpp"
#include "xd1/node.hpp"

namespace prtr::runtime {

/// Software-side execution model of one blade CPU (2.4 GHz Opteron).
struct CpuModel {
  util::Frequency clock = util::Frequency::megahertz(2400);
  /// Cycles per input byte for the image kernels in software. The paper's
  /// cited application studies report one-to-two-orders-of-magnitude HW
  /// speedups; 35 cycles/byte puts the fabric at ~42x the CPU's pixel rate.
  double cyclesPerByte = 35.0;

  [[nodiscard]] util::Time computeTime(util::Bytes input) const noexcept {
    return util::Time::seconds(static_cast<double>(input.count()) *
                               cyclesPerByte / clock.hertz());
  }
};

/// Call-by-call placement decision policies.
enum class Partitioning : std::uint8_t {
  kAlwaysHardware,  ///< the paper's setting: every task is a hardware task
  kAlwaysSoftware,  ///< pure-CPU baseline
  kStaticThreshold, ///< hardware only if the task beats SW even with a config
  kAdaptive,        ///< hardware if resident; else cheaper of (config+HW, SW)
};

[[nodiscard]] const char* toString(Partitioning policy) noexcept;

/// Options for the HW/SW executor.
struct HwSwOptions {
  Partitioning policy = Partitioning::kAdaptive;
  CpuModel cpu{};
  util::Time tControl = util::Time::microseconds(10);
};

/// Outcome of a HW/SW run: the base report plus the placement split.
struct HwSwReport {
  ExecutionReport base;
  std::uint64_t hardwareCalls = 0;
  std::uint64_t softwareCalls = 0;
  util::Time softwareTime;

  [[nodiscard]] double hardwareFraction() const noexcept {
    const std::uint64_t total = hardwareCalls + softwareCalls;
    return total ? static_cast<double>(hardwareCalls) /
                       static_cast<double>(total)
                 : 0.0;
  }
};

/// Executes `workload` with HW/SW partitioning on a PRTR-managed node.
/// Hardware calls use the measured configuration paths (vendor API for the
/// initial full load, ICAP for partials); software calls run on the CPU
/// model and require no data movement over the accelerator link.
class HwSwExecutor {
 public:
  HwSwExecutor(xd1::Node& node, const tasks::FunctionRegistry& registry,
               bitstream::Library& library, ConfigCache& cache,
               HwSwOptions options);

  [[nodiscard]] HwSwReport run(const tasks::Workload& workload);

 private:
  [[nodiscard]] bool placeInHardware(const tasks::TaskCall& call) const;
  [[nodiscard]] util::Time hardwareCost(const tasks::TaskCall& call,
                                        bool resident) const;
  [[nodiscard]] util::Time softwareCost(const tasks::TaskCall& call) const;

  sim::Process execute(const tasks::Workload& workload);

  xd1::Node* node_;
  const tasks::FunctionRegistry* registry_;
  bitstream::Library* library_;
  ConfigCache* cache_;
  HwSwOptions options_;
  HwSwReport report_;
};

}  // namespace prtr::runtime
