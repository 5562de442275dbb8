#pragma once
/// \file options.hpp
/// One command-line vocabulary for prtr-bench, bench_micro and prtrsim.
/// Options consumes the shared flags, leaves everything it does not
/// recognise in `rest` (for google-benchmark, prtrsim's domain flags, or a
/// bench case's own flags), and renders one uniform usage block.
///
/// The shared vocabulary:
///
///   --json <path>      write the machine-readable report/result JSON
///   --trace <path>     export a Chrome trace of the simulated run
///   --profile <path>   write the host.* timing histograms (obs/host.hpp)
///   --threads <n>      worker threads for parallel sweeps (1..256; default hw)
///   --seed <n>         override the deterministic RNG seed
///   --help             print the usage block and exit 0

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace prtr::bench {

/// Parses `text`, the value of `flag`: decimal digits only (no sign or
/// blanks) that fit in 64 bits, else util::DomainError naming the flag.
[[nodiscard]] std::uint64_t parseUnsigned(std::string_view flag,
                                          std::string_view text);

class Options {
 public:
  /// The largest `--threads` count parse() accepts: the pool starts one OS
  /// thread per worker, so a typo must not ask for millions.
  static constexpr std::uint64_t kMaxThreads = 256;

  /// Parses the shared flags out of argv (argv[0] is skipped). `bench`
  /// names the program in the usage block. Unrecognised arguments are
  /// kept, in order, in rest(). Throws util::DomainError when a flag is
  /// missing its value, `--threads` is not an integer in 1..kMaxThreads,
  /// or `--seed` is not an unsigned integer.
  static Options parse(std::string bench, int argc, const char* const* argv);

  /// The uniform usage block: "usage:" line, the shared flags, then
  /// `extra` (one "  --flag ...  description" line per domain flag) when
  /// the caller layers its own vocabulary on top.
  static std::string usage(const std::string& bench,
                           const std::string& extra = {});

  [[nodiscard]] const std::string& jsonPath() const noexcept { return json_; }
  [[nodiscard]] const std::string& tracePath() const noexcept { return trace_; }
  [[nodiscard]] const std::string& profilePath() const noexcept {
    return profile_;
  }
  [[nodiscard]] bool jsonRequested() const noexcept { return !json_.empty(); }
  [[nodiscard]] bool traceRequested() const noexcept { return !trace_.empty(); }
  [[nodiscard]] bool profileRequested() const noexcept {
    return !profile_.empty();
  }

  /// Worker threads: the `--threads` value, defaulting to the hardware
  /// concurrency. Always >= 1.
  [[nodiscard]] std::size_t threads() const noexcept { return threads_; }

  /// True when `--seed` appeared; seed() then holds its value. Benches
  /// with a fixed reference seed use seedOr(kDefault) so the published
  /// numbers stay reproducible unless the user asks otherwise.
  [[nodiscard]] bool seedSet() const noexcept { return seedSet_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t seedOr(std::uint64_t fallback) const noexcept {
    return seedSet_ ? seed_ : fallback;
  }

  /// True when `--help` appeared: the caller prints usage() and exits 0.
  [[nodiscard]] bool helpRequested() const noexcept { return help_; }

  /// Prints usage() to stdout when --help was given. Returns true when it
  /// did (the caller returns 0 from main).
  [[nodiscard]] bool helpRequestedAndHandled(const std::string& extra = {}) const;

  /// Arguments parse() did not recognise, in their original order.
  [[nodiscard]] const std::vector<std::string>& rest() const noexcept {
    return rest_;
  }

 private:
  std::string bench_;
  std::string json_;
  std::string trace_;
  std::string profile_;
  std::size_t threads_ = 1;
  std::uint64_t seed_ = 0;
  bool seedSet_ = false;
  bool help_ = false;
  std::vector<std::string> rest_;
};

}  // namespace prtr::bench
