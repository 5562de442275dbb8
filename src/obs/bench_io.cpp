#include "obs/bench_io.hpp"

#include <fstream>

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

}  // namespace prtr::obs
