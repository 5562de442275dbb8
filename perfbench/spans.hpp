#pragma once
/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run. The benchmark
/// opens a span around each call it makes into a library layer; spans are
/// kept in memory and written once, as a Chrome/Perfetto trace, when the
/// run ends. A layer's self time is its span's duration minus the part
/// covered by its child spans.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    const char* name = "";  ///< static string: a layer name
    std::int64_t startNs = 0;
    std::int64_t endNs = -1;  ///< -1 while open
    std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
    std::uint64_t op = 0;      ///< op the span belongs to
  };

  /// Per-name totals over closed spans.
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };

  /// Opens `name` under the innermost open span. Returns the span's index.
  std::size_t open(const char* name, std::uint64_t op);
  /// Closes the innermost open span, which must be `index`.
  void close(std::size_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Count, total and self time per span name.
  [[nodiscard]] std::map<std::string, Totals> totals() const;
  /// Chrome trace JSON ("X" events, microseconds, one track).
  [[nodiscard]] std::string toChromeJson() const;
  /// Writes toChromeJson() to `path`; throws std::runtime_error on failure.
  void writeFile(const std::string& path) const;

  /// RAII span: opens on construction, closes on destruction. A null
  /// recorder makes it a no-op, so untraced code paths share the call.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, std::uint64_t op)
        : recorder_(recorder),
          index_(recorder != nullptr ? recorder->open(name, op) : 0) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    std::size_t index_;
  };

 private:
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

}  // namespace perfbench
