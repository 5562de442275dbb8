#pragma once
/// \file bench_io.hpp
/// Machine-readable output for the `prtr-bench <case>` runs. The driver
/// (bench/main.cpp) builds one BenchReport from the parsed bench::Options,
/// the case registers the tables and key scalars it prints, and the driver
/// calls finish() whatever the case's verdict. Under `--json <path>` that
/// writes one document, the numbers the human-readable tables show:
///
///   {"bench":"table2","scalars":{...},"notes":{...},
///    "tables":{"name":{"header":[...],"rows":[[...],...]}},
///    "metrics":{"counters":{...},...}}
///
/// Under `--trace <path>` the report owns the Chrome trace the case records
/// into. Under `--profile <path>` it writes the host timings
/// (obs::hostMetrics(), all under `host.`), which never enter the
/// deterministic `--json` document.

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "util/table.hpp"

namespace prtr::obs {

class BenchReport {
 public:
  /// `name` is the document's "bench" field (the case name).
  BenchReport(std::string name, bench::Options options);

  /// The parsed flags: threads() sizes the case's sweeps (recorded as the
  /// "threads" scalar), seedOr() overrides its reference seed, and rest()
  /// holds the case's own flags.
  [[nodiscard]] const bench::Options& options() const noexcept {
    return options_;
  }

  /// The trace to record into when `--trace` was given, else nullptr.
  /// finish() writes it.
  [[nodiscard]] ChromeTrace* trace() noexcept {
    return trace_ ? &*trace_ : nullptr;
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

  /// Writes the trace, the host profile and the JSON document, each when
  /// its flag was given. Throws util::Error when a file cannot be opened.
  void finish() const;

 private:
  std::string name_;
  bench::Options options_;
  std::optional<ChromeTrace> trace_;
  std::vector<std::pair<std::string, double>> scalars_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::pair<std::string, util::Table>> tables_;
  MetricsSnapshot metrics_;
};

}  // namespace prtr::obs
