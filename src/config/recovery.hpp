#pragma once
/// \file recovery.hpp
/// Recovery policy for configuration loads under transient faults.
///
/// The paper's model (Eqs. 6-7) assumes every load succeeds; the fault layer
/// (src/fault) breaks that assumption deliberately. This header defines what
/// config::Manager does about it: post-load readback-verify (a byte compare
/// of the written frames against the stream), bounded retry with exponential
/// backoff in *simulated* time, and a graceful-degradation ladder that trades
/// configuration cost for certainty — module-based partial, full-PRR reload,
/// and finally an FRTR-style full-device fallback. A recovering load either
/// lands on some rung or throws util::FaultError after the ladder is
/// exhausted; it never deadlocks and always reports where it landed.

#include <array>
#include <cstddef>
#include <cstdint>

#include "util/units.hpp"

namespace prtr::bitstream {
class Bitstream;
}  // namespace prtr::bitstream

namespace prtr::config {

/// When a successful load is followed by a readback-verify pass.
enum class VerifyMode : std::uint8_t {
  kOff,      ///< never verify (trust the write)
  kOnFault,  ///< verify only when upsets were injected during the load window
  kAlways,   ///< verify every recovering load
};

[[nodiscard]] const char* toString(VerifyMode mode) noexcept;

/// Rungs of the degradation ladder, cheapest first. `kNone` means no
/// recovering load has completed yet. Loads enter at `kModulePartial`;
/// `kDifferencePartial` is never landed on, but keeps its value because
/// rung-indexed tables and the `recovery.degraded_to` metric use the
/// numbering.
enum class RecoveryRung : std::uint8_t {
  kNone = 0,
  kDifferencePartial,  ///< difference-based partial (no load enters here)
  kModulePartial,      ///< module-based partial (full PRR frame set)
  kFullPrrReload,      ///< occupancy-1.0 rewrite of every frame in the PRR
  kFullDevice,         ///< FRTR fallback: full configuration + module partial
};

inline constexpr std::size_t kRecoveryRungCount = 5;

[[nodiscard]] const char* toString(RecoveryRung rung) noexcept;

/// Suffix used for the recovery.landed.<suffix> obs metric of `rung`.
[[nodiscard]] const char* metricSuffix(RecoveryRung rung) noexcept;

/// Knobs consumed by config::Manager's fullConfigure and loadModule; the
/// runtime reads `enabled` and `ladder` only to decide whether to resolve
/// the fallback streams.
struct RecoveryPolicy {
  bool enabled = false;
  /// Retries per rung beyond the first attempt (so maxRetries = 3 means at
  /// most 4 attempts on each rung before escalating).
  std::uint32_t maxRetries = 3;
  /// Frame-granular verify-repair rounds per attempt before the attempt is
  /// declared failed.
  std::uint32_t maxRepairRounds = 4;
  /// Backoff before retry k (1-based) is backoffBase * backoffFactor^(k-1),
  /// spent as simulated time.
  util::Time backoffBase = util::Time::microseconds(50);
  double backoffFactor = 2.0;
  VerifyMode verify = VerifyMode::kOnFault;
  /// When false, a load exhausts its retries on the entry rung and throws
  /// instead of escalating.
  bool ladder = true;
};

/// Aggregate recovery accounting, scraped into recovery.* metrics.
struct RecoveryStats {
  std::uint64_t requests = 0;        ///< recovering loads started
  std::uint64_t attempts = 0;        ///< individual load attempts
  std::uint64_t retries = 0;         ///< attempts beyond the first on a rung
  std::uint64_t faultsAbsorbed = 0;  ///< FaultErrors caught and retried
  std::uint64_t verifications = 0;
  std::uint64_t verifyFailures = 0;  ///< verify passes that found corruption
  std::uint64_t frameRepairs = 0;    ///< frames rewritten by repair rounds
  std::uint64_t escalations = 0;     ///< rung-to-rung ladder climbs
  std::uint64_t fullDeviceFallbacks = 0;
  /// Successful loads per rung, indexed by RecoveryRung.
  std::array<std::uint64_t, kRecoveryRungCount> landedOnRung{};
  /// Worst (heaviest) rung any request landed on.
  RecoveryRung degradedTo = RecoveryRung::kNone;
  util::Time backoffTime = util::Time::zero();
  util::Time verifyTime = util::Time::zero();
  util::Time repairTime = util::Time::zero();
};

/// The streams a module load may fall back to once its module partial
/// (the entry rung) is exhausted; null rungs are skipped when climbing.
struct RecoveryStreams {
  const bitstream::Bitstream* fullPrr = nullptr;
  const bitstream::Bitstream* fullDevice = nullptr;
};

}  // namespace prtr::config
