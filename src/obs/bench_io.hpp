#pragma once
/// \file bench_io.hpp
/// Machine-readable output for the bench/ binaries. Every bench constructs
/// a BenchReport from argv, registers the tables and key scalars it prints,
/// and returns finish() from main. With `--json <path>` on the command line
/// the run additionally emits one JSON document:
///
///   {"bench":"table2","scalars":{...},"notes":{...},
///    "tables":{"name":{"header":[...],"rows":[[...],...]}},
///    "metrics":{"counters":{...},...}}
///
/// so the CI smoke job and future perf-trajectory tooling consume the same
/// numbers the human-readable tables show. With `--profile <path>` it also
/// writes the process's host timings (obs::hostMetrics(), every name under
/// `host.`) as a MetricsSnapshot JSON; they never enter the `--json`
/// document, which stays deterministic. Flag parsing is delegated to the
/// shared bench::Options vocabulary (`--json/--trace/--profile/--threads/
/// --seed/--help`), so every bench binary answers `--help` with the same
/// usage block.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "obs/metrics.hpp"
#include "util/table.hpp"

namespace prtr::obs {

class BenchReport {
 public:
  /// Parses the shared bench::Options flags from argv; other arguments are
  /// ignored (benches are otherwise argument-free). Throws
  /// util::DomainError when a flag is missing its value or malformed.
  /// `--help` prints the uniform usage block and exits the process with
  /// status 0, so plain benches support it without touching their mains.
  BenchReport(std::string name, int argc, const char* const* argv);

  [[nodiscard]] bool jsonRequested() const noexcept {
    return options_.jsonRequested();
  }
  [[nodiscard]] bool traceRequested() const noexcept {
    return options_.traceRequested();
  }
  [[nodiscard]] bool profileRequested() const noexcept {
    return options_.profileRequested();
  }
  [[nodiscard]] const std::string& jsonPath() const noexcept {
    return options_.jsonPath();
  }
  [[nodiscard]] const std::string& tracePath() const noexcept {
    return options_.tracePath();
  }
  [[nodiscard]] const std::string& profilePath() const noexcept {
    return options_.profilePath();
  }

  /// Worker-thread count for the bench's parallel sweeps: the `--threads`
  /// value, defaulting to the hardware concurrency. Always >= 1; recorded
  /// as the "threads" scalar in the JSON document.
  [[nodiscard]] std::size_t threads() const noexcept {
    return options_.threads();
  }

  /// The bench's RNG seed: the `--seed` value when given, else `fallback`.
  /// Benches with a published reference seed pass it here so default runs
  /// stay byte-reproducible.
  [[nodiscard]] std::uint64_t seedOr(std::uint64_t fallback) const noexcept {
    return options_.seedOr(fallback);
  }

  /// The full parsed vocabulary, for benches that also need rest().
  [[nodiscard]] const bench::Options& options() const noexcept {
    return options_;
  }

  /// Registers a key scalar (measured speedup, model error, ...).
  void scalar(const std::string& name, double value);
  void scalar(const std::string& name, std::uint64_t value);

  /// Registers a free-form string fact (device name, layout, ...).
  void note(const std::string& name, const std::string& text);

  /// Registers a rendered table under `name` (copied).
  void table(const std::string& name, const util::Table& table);

  /// Registers the run's metrics snapshot (merged into any prior one).
  void metrics(const MetricsSnapshot& snapshot);
  /// Move overload for temporaries (Pool::metricsSnapshot(), takeMerged()):
  /// splices the maps instead of copying every key.
  void metrics(MetricsSnapshot&& snapshot);

  /// Writes the host profile when --profile was requested and the JSON
  /// document when --json was. Returns the process exit code for main (0;
  /// file errors propagate as exceptions).
  [[nodiscard]] int finish() const;

 private:
  std::string name_;
  bench::Options options_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, util::Table>> tables_;
  MetricsSnapshot metrics_;
};

}  // namespace prtr::obs
