#pragma once
/// \file options.hpp
/// One command-line vocabulary for every bench binary and the prtrsim CLI.
///
/// Before this existed each `bench/bench_*.cpp` main re-parsed (or silently
/// ignored) its own `--json/--trace/--threads/--profile` flags and no two
/// binaries agreed on `--help`. Options is the single parser: it consumes
/// the shared flags, leaves everything it does not recognise in `rest` (so
/// wrappers like bench_micro can forward to google-benchmark and prtrsim
/// can layer its domain flags on top), and renders one uniform usage block.
///
/// The shared vocabulary:
///
///   --json <path>      write the machine-readable report/result JSON
///   --trace <path>     export a Chrome trace of the simulated run
///   --profile <path>   write the host.* timing histograms (obs/host.hpp)
///   --threads <n>      worker threads for parallel sweeps (default: hw)
///   --seed <n>         override the deterministic RNG seed
///   --help             print the usage block and exit 0
///
/// obs::BenchReport delegates here, so plain benches inherit the whole
/// surface by constructing a report from argv and nothing else.

#include <cstdint>
#include <string>
#include <vector>

namespace prtr::bench {

class Options {
 public:
  /// Parses the shared flags out of argv. `bench` names the binary in
  /// diagnostics and the usage block. Unrecognised arguments are kept, in
  /// order, in rest(). Throws util::DomainError when a flag is missing its
  /// value, `--threads` is not a positive integer, or `--seed` is not an
  /// unsigned integer.
  static Options parse(std::string bench, int argc, const char* const* argv);

  /// The uniform usage block: "usage:" line, the shared flags, then
  /// `extra` (one "  --flag ...  description" line per domain flag) when
  /// the caller layers its own vocabulary on top.
  static std::string usage(const std::string& bench,
                           const std::string& extra = {});

  [[nodiscard]] const std::string& bench() const noexcept { return bench_; }
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

  /// True when `--help` appeared. The caller prints usage() (plus any
  /// domain flags) and exits 0; helpRequestedAndHandled() does exactly
  /// that for callers with no extra vocabulary.
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
