#include "obs/bench_io.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "obs/host.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prtr::obs {

BenchReport::BenchReport(std::string name, bench::Options options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (options_.traceRequested()) trace_.emplace();
}

void BenchReport::scalar(const std::string& name, double value) {
  scalars_.emplace_back(name, value);
}

void BenchReport::scalar(const std::string& name, std::uint64_t value) {
  scalars_.emplace_back(name, static_cast<double>(value));
}

void BenchReport::note(const std::string& name, const std::string& text) {
  notes_.emplace_back(name, text);
}

void BenchReport::table(const std::string& name, const util::Table& table) {
  tables_.emplace_back(name, table);
}

void BenchReport::metrics(const MetricsSnapshot& snapshot) {
  metrics_.merge(snapshot);
}

void BenchReport::metrics(MetricsSnapshot&& snapshot) {
  metrics_.merge(std::move(snapshot));
}

namespace {

std::ofstream openForWriting(const std::string& path) {
  std::ofstream file{path};
  if (!file) {
    throw util::Error{"BenchReport: cannot open " + path + " for writing"};
  }
  return file;
}

/// Symmetric relative difference; 0 for exact equality (including 0 vs 0).
double relativeDelta(double baseline, double current) noexcept {
  if (baseline == current) return 0.0;
  const double denom = std::max(std::abs(baseline), std::abs(current));
  return (current - baseline) / denom;
}

std::string formatPercent(double rel) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%+.2f%%", rel * 100.0);
  return buf;
}

BenchDoc::Table parseTable(const util::json::Value& value) {
  BenchDoc::Table table;
  for (const util::json::Value& cell : value.at("header").asArray()) {
    table.header.push_back(cell.asString());
  }
  for (const util::json::Value& row : value.at("rows").asArray()) {
    std::vector<std::string> cells;
    for (const util::json::Value& cell : row.asArray()) {
      cells.push_back(cell.asString());
    }
    table.rows.push_back(std::move(cells));
  }
  return table;
}

/// First cell-level difference between two tables, or empty when equal.
std::string firstTableDiff(const BenchDoc::Table& baseline,
                           const BenchDoc::Table& current) {
  if (baseline.header != current.header) return "header differs";
  if (baseline.rows.size() != current.rows.size()) {
    return "row count " + std::to_string(baseline.rows.size()) + " vs " +
           std::to_string(current.rows.size());
  }
  for (std::size_t r = 0; r < baseline.rows.size(); ++r) {
    const auto& a = baseline.rows[r];
    const auto& b = current.rows[r];
    if (a.size() != b.size()) {
      return "row " + std::to_string(r) + " cell count differs";
    }
    for (std::size_t c = 0; c < a.size(); ++c) {
      if (a[c] != b[c]) {
        return "row " + std::to_string(r) + " col " + std::to_string(c) +
               ": \"" + a[c] + "\" vs \"" + b[c] + "\"";
      }
    }
  }
  return {};
}

}  // namespace

void BenchReport::finish() const {
  if (trace_) trace_->writeFile(options_.tracePath());
  if (options_.profileRequested()) {
    std::ofstream profile = openForWriting(options_.profilePath());
    profile << hostMetrics().snapshot().toJson() << '\n';
  }
  if (!options_.jsonRequested()) return;
  std::ofstream file = openForWriting(options_.jsonPath());
  util::json::Writer w{file};
  w.beginObject();
  w.key("bench").value(name_);
  w.key("scalars").beginObject();
  w.key("threads").value(static_cast<double>(options_.threads()));
  for (const auto& [name, value] : scalars_) w.key(name).value(value);
  w.endObject();
  w.key("notes").beginObject();
  for (const auto& [name, text] : notes_) w.key(name).value(text);
  w.endObject();
  w.key("tables").beginObject();
  for (const auto& [name, table] : tables_) {
    w.key(name).beginObject();
    w.key("header").beginArray();
    for (const std::string& cell : table.header()) w.value(cell);
    w.endArray();
    w.key("rows").beginArray();
    for (std::size_t r = 0; r < table.rowCount(); ++r) {
      w.beginArray();
      for (const std::string& cell : table.rowAt(r)) w.value(cell);
      w.endArray();
    }
    w.endArray();
    w.endObject();
  }
  w.endObject();
  w.key("metrics");
  metrics_.writeJson(w);
  w.endObject();
  file << '\n';
}

const double* BenchDoc::findScalar(std::string_view name) const noexcept {
  for (const auto& [scalarName, value] : scalars) {
    if (scalarName == name) return &value;
  }
  return nullptr;
}

const BenchDoc::Table* BenchDoc::findTable(std::string_view name)
    const noexcept {
  for (const auto& [tableName, table] : tables) {
    if (tableName == name) return &table;
  }
  return nullptr;
}

BenchDoc BenchDoc::parse(const util::json::Value& doc) {
  BenchDoc out;
  out.bench = doc.at("bench").asString();
  for (const auto& [name, value] : doc.at("scalars").asObject()) {
    out.scalars.emplace_back(name, value.asNumber());
  }
  if (const util::json::Value* notes = doc.find("notes")) {
    for (const auto& [name, value] : notes->asObject()) {
      out.notes.emplace_back(name, value.asString());
    }
  }
  if (const util::json::Value* tables = doc.find("tables")) {
    for (const auto& [name, value] : tables->asObject()) {
      out.tables.emplace_back(name, parseTable(value));
    }
  }
  return out;
}

BenchDoc BenchDoc::parseFile(const std::string& path) {
  std::ifstream file{path};
  if (!file) throw util::Error{"BenchDoc: cannot read " + path};
  std::ostringstream buffer;
  buffer << file.rdbuf();
  try {
    return parse(util::json::Value::parse(buffer.str()));
  } catch (const util::DomainError& e) {
    throw util::DomainError{path + ": " + e.what()};
  }
}

bool ComparePolicy::isWallClockScalar(std::string_view name) noexcept {
  return name == "threads" || name.find("wall") != std::string_view::npos ||
         name.ends_with("_ms") || name.starts_with("time_") ||
         name.starts_with("chassis_") || name.starts_with("speedup_") ||
         name.starts_with("host_");
}

bool ComparePolicy::isWallClockTable(std::string_view name) noexcept {
  return name.find("time") != std::string_view::npos ||
         name.find("wall") != std::string_view::npos;
}

std::string_view toString(DeltaKind kind) noexcept {
  switch (kind) {
    case DeltaKind::kMatch: return "ok";
    case DeltaKind::kInfo: return "info";
    case DeltaKind::kRegression: return "REGRESSION";
    case DeltaKind::kMissing: return "MISSING";
    case DeltaKind::kNew: return "new";
  }
  return "?";
}

CompareResult compare(const BenchDoc& baseline, const BenchDoc& current,
                      const ComparePolicy& policy) {
  CompareResult result;
  result.bench = current.bench;

  for (const auto& [name, base] : baseline.scalars) {
    ScalarDelta delta;
    delta.name = name;
    delta.baseline = base;
    delta.wallClock = ComparePolicy::isWallClockScalar(name);
    const double* cur = current.findScalar(name);
    if (cur == nullptr) {
      delta.kind = DeltaKind::kMissing;
      result.pass = false;
    } else {
      delta.current = *cur;
      delta.relDelta = relativeDelta(base, *cur);
      if (delta.wallClock) {
        if (!policy.gateWallClock) {
          delta.kind = DeltaKind::kInfo;
        } else if (std::abs(delta.relDelta) <= policy.wallBand) {
          delta.kind = DeltaKind::kMatch;
        } else {
          delta.kind = DeltaKind::kRegression;
          result.pass = false;
        }
      } else if (std::abs(delta.relDelta) <= policy.exactRelTol) {
        delta.kind = DeltaKind::kMatch;
      } else {
        delta.kind = DeltaKind::kRegression;
        result.pass = false;
      }
    }
    result.scalars.push_back(std::move(delta));
  }
  for (const auto& [name, value] : current.scalars) {
    if (baseline.findScalar(name) != nullptr) continue;
    ScalarDelta delta;
    delta.name = name;
    delta.current = value;
    delta.wallClock = ComparePolicy::isWallClockScalar(name);
    delta.kind = DeltaKind::kNew;
    result.scalars.push_back(std::move(delta));
  }

  for (const auto& [name, base] : baseline.tables) {
    TableDelta delta;
    delta.name = name;
    delta.wallClock = ComparePolicy::isWallClockTable(name);
    const BenchDoc::Table* cur = current.findTable(name);
    if (cur == nullptr) {
      delta.kind = DeltaKind::kMissing;
      result.pass = false;
    } else if (std::string diff = firstTableDiff(base, *cur); !diff.empty()) {
      delta.detail = std::move(diff);
      if (delta.wallClock && !policy.gateWallClock) {
        delta.kind = DeltaKind::kInfo;
      } else {
        delta.kind = DeltaKind::kRegression;
        result.pass = false;
      }
    }
    result.tables.push_back(std::move(delta));
  }
  for (const auto& [name, table] : current.tables) {
    if (baseline.findTable(name) != nullptr) continue;
    TableDelta delta;
    delta.name = name;
    delta.wallClock = ComparePolicy::isWallClockTable(name);
    delta.kind = DeltaKind::kNew;
    result.tables.push_back(std::move(delta));
  }
  return result;
}

std::string CompareResult::renderText() const {
  std::ostringstream os;
  os << "bench " << bench << ": " << (pass ? "PASS" : "FAIL") << '\n';
  for (const ScalarDelta& d : scalars) {
    os << "  scalar " << d.name << "  baseline="
       << util::json::formatNumber(d.baseline)
       << " current=" << util::json::formatNumber(d.current)
       << " delta=" << formatPercent(d.relDelta) << "  [" << toString(d.kind)
       << (d.wallClock ? ", wall-clock" : "") << "]\n";
  }
  for (const TableDelta& d : tables) {
    os << "  table  " << d.name << "  [" << toString(d.kind)
       << (d.wallClock ? ", wall-clock" : "") << "]";
    if (!d.detail.empty()) os << "  " << d.detail;
    os << '\n';
  }
  return os.str();
}

std::string CompareResult::renderMarkdown() const {
  std::ostringstream os;
  os << "### " << bench << " — " << (pass ? "PASS" : "FAIL") << "\n\n";
  os << "| item | baseline | current | delta | status |\n";
  os << "|---|---:|---:|---:|---|\n";
  for (const ScalarDelta& d : scalars) {
    os << "| `" << d.name << "` | " << util::json::formatNumber(d.baseline)
       << " | " << util::json::formatNumber(d.current) << " | "
       << formatPercent(d.relDelta) << " | " << toString(d.kind)
       << (d.wallClock ? " (wall-clock)" : "") << " |\n";
  }
  for (const TableDelta& d : tables) {
    os << "| table `" << d.name << "` | | | | " << toString(d.kind);
    if (!d.detail.empty()) os << ": " << d.detail;
    os << " |\n";
  }
  os << '\n';
  return os.str();
}

void CompareResult::writeJson(util::json::Writer& w) const {
  w.beginObject();
  w.key("bench").value(bench);
  w.key("pass").value(pass);
  w.key("scalars").beginArray();
  for (const ScalarDelta& d : scalars) {
    w.beginObject();
    w.key("name").value(d.name);
    w.key("baseline").value(d.baseline);
    w.key("current").value(d.current);
    w.key("rel_delta").value(d.relDelta);
    w.key("wall_clock").value(d.wallClock);
    w.key("status").value(toString(d.kind));
    w.endObject();
  }
  w.endArray();
  w.key("tables").beginArray();
  for (const TableDelta& d : tables) {
    w.beginObject();
    w.key("name").value(d.name);
    w.key("wall_clock").value(d.wallClock);
    w.key("status").value(toString(d.kind));
    w.key("detail").value(d.detail);
    w.endObject();
  }
  w.endArray();
  w.endObject();
}

}  // namespace prtr::obs
