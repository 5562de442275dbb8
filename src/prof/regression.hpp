#pragma once
/// \file regression.hpp
/// Bench-regression comparison: parses the JSON documents the bench
/// binaries emit via obs::BenchReport (--json), compares a current run
/// against a committed baseline (bench/baselines/BENCH_<name>.json), and
/// classifies every scalar and table delta. Simulated-time scalars must
/// match exactly (within a libm-noise relative tolerance); wall-clock
/// scalars are machine-dependent, so they are reported informationally by
/// default and only gated when the caller opts in with a percentage band.
/// The prtr-report CLI renders the result as a terminal/markdown dashboard
/// and a machine JSON verdict.

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/json.hpp"

namespace prtr::prof {

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

}  // namespace prtr::prof
