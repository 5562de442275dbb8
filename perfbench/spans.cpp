#include "spans.hpp"

#include <chrono>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace perfbench {
namespace {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::size_t SpanRecorder::open(const char* name, std::uint64_t op) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  const std::size_t index = spans_.size();
  spans_.push_back(span);
  stack_.push_back(index);
  spans_[index].startNs = nowNs();
  return index;
}

void SpanRecorder::close(std::size_t index) {
  const std::int64_t end = nowNs();
  if (stack_.empty() || stack_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  stack_.pop_back();
  spans_[index].endNs = end;
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::totals() const {
  std::map<std::string, Totals> out;
  for (const Span& span : spans_) {
    if (span.endNs < 0) continue;
    const std::int64_t duration = span.endNs - span.startNs;
    Totals& t = out[span.name];
    ++t.count;
    t.totalNs += duration;
    t.selfNs += duration;
    // Children of one recorder never overlap (one thread, strictly
    // nested), so the covered part of the parent is the sum of them.
    if (span.parent >= 0) {
      out[spans_[static_cast<std::size_t>(span.parent)].name].selfNs -= duration;
    }
  }
  return out;
}

std::string SpanRecorder::toChromeJson() const {
  std::ostringstream os;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (span.endNs < 0) continue;
    if (!first) os << ',';
    first = false;
    os << "\n{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1"
       << ",\"ts\":" << static_cast<double>(span.startNs - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(span.endNs - span.startNs) / 1e3
       << ",\"args\":{\"op\":" << span.op << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return os.str();
}

void SpanRecorder::writeFile(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error("SpanRecorder: cannot open " + path);
  out << toChromeJson();
  if (!out) throw std::runtime_error("SpanRecorder: cannot write " + path);
}

}  // namespace perfbench
