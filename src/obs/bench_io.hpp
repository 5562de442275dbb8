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
///
/// The reading side closes the loop: BenchDoc parses such a document and
/// compare() classifies every scalar and table delta of a current run
/// against a committed baseline (bench/baselines/BENCH_<name>.json).
/// Simulated-time scalars must match exactly (within a libm-noise relative
/// tolerance); wall-clock scalars are machine-dependent, so they are
/// reported informationally by default and only gated when the caller opts
/// in with a percentage band. The prtr-report CLI renders the result as a
/// terminal/markdown dashboard and a machine JSON verdict.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_export.hpp"
#include "util/json.hpp"
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
  /// Move overload for temporaries (Pool::metricsSnapshot(), a sweep's
  /// merged snapshot): splices the maps instead of copying every key.
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

/// One parsed bench --json document. Member order follows the document so
/// dashboards list scalars the way the bench registered them.
struct BenchDoc {
  struct Table {
    std::vector<std::string> header;
    std::vector<std::vector<std::string>> rows;

    friend bool operator==(const Table&, const Table&) = default;
  };

  std::string bench;
  std::vector<std::pair<std::string, double>> scalars;
  std::vector<std::pair<std::string, std::string>> notes;
  std::vector<std::pair<std::string, Table>> tables;

  [[nodiscard]] const double* findScalar(std::string_view name) const noexcept;
  [[nodiscard]] const Table* findTable(std::string_view name) const noexcept;

  /// Parses one bench document (already-parsed JSON). Throws
  /// util::DomainError when required members are missing or mistyped.
  [[nodiscard]] static BenchDoc parse(const util::json::Value& doc);

  /// Reads and parses `path`. Throws util::Error when the file cannot be
  /// read, util::DomainError when it is not a bench document.
  [[nodiscard]] static BenchDoc parseFile(const std::string& path);
};

/// Noise policy for one comparison.
struct ComparePolicy {
  /// Relative tolerance for deterministic scalars: the numbers come from
  /// double arithmetic that may cross libm versions, so "exact" means
  /// agreeing to ~9 significant digits, not bit equality.
  double exactRelTol = 1e-9;

  /// Allowed relative band for wall-clock scalars when gating them.
  double wallBand = 0.25;

  /// Wall-clock deltas fail the comparison only when set; by default they
  /// are reported informationally (CI machines differ too much).
  bool gateWallClock = false;

  /// True for scalars whose value depends on the host machine rather than
  /// the simulation: "threads", "*_ms", "time_*", "chassis_*", "speedup_*",
  /// "host_*", and anything containing "wall".
  [[nodiscard]] static bool isWallClockScalar(std::string_view name) noexcept;

  /// True for tables whose cells render wall-clock measurements ("*time*",
  /// "*wall*").
  [[nodiscard]] static bool isWallClockTable(std::string_view name) noexcept;
};

/// Classification of one compared item.
enum class DeltaKind {
  kMatch,       ///< within tolerance / band
  kInfo,        ///< wall-clock drift, not gated
  kRegression,  ///< out of tolerance — fails the comparison
  kMissing,     ///< present in baseline, absent in current — fails
  kNew,         ///< absent in baseline — informational
};

[[nodiscard]] std::string_view toString(DeltaKind kind) noexcept;

struct ScalarDelta {
  std::string name;
  double baseline = 0.0;
  double current = 0.0;
  /// (current - baseline) / |baseline|; 0 when baseline is 0 and they match.
  double relDelta = 0.0;
  bool wallClock = false;
  DeltaKind kind = DeltaKind::kMatch;
};

struct TableDelta {
  std::string name;
  bool wallClock = false;
  DeltaKind kind = DeltaKind::kMatch;
  /// First difference ("row 3 col 2: \"9.1\" vs \"9.4\"", "row count 5 vs 6").
  std::string detail;
};

/// Full comparison outcome for one bench.
struct CompareResult {
  std::string bench;
  std::vector<ScalarDelta> scalars;
  std::vector<TableDelta> tables;
  bool pass = true;

  /// Fixed-width terminal dashboard (one line per scalar/table).
  [[nodiscard]] std::string renderText() const;

  /// GitHub-flavoured markdown table for CI artifacts.
  [[nodiscard]] std::string renderMarkdown() const;

  /// {"bench":...,"pass":...,"scalars":[...],"tables":[...]}.
  void writeJson(util::json::Writer& w) const;
};

/// Compares `current` against `baseline` under `policy`. The bench names
/// need not match (callers pair files up); the result carries the current
/// document's name.
[[nodiscard]] CompareResult compare(const BenchDoc& baseline,
                                    const BenchDoc& current,
                                    const ComparePolicy& policy = {});

}  // namespace prtr::obs
