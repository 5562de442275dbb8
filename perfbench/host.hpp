#pragma once
/// \file host.hpp
/// What a benchmark run costs the host, measured from inside the process:
/// CPU time, resident memory, the concurrency the host actually delivers,
/// plus the small statistics and digest helpers the workloads share.

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Process CPU time (user + sys of every thread), in seconds.
[[nodiscard]] double processCpuSeconds();

/// Monotonic wall clock, in seconds from an arbitrary origin.
[[nodiscard]] double wallSeconds();

/// Resident-set figures from /proc/self/status, in kB.
struct MemStatus {
  std::uint64_t rssKb = 0;  ///< VmRSS: resident now
  std::uint64_t hwmKb = 0;  ///< VmHWM: peak resident since process start
};

/// Parses the VmRSS / VmHWM lines of a /proc/<pid>/status text. Missing
/// lines leave their field at 0.
[[nodiscard]] MemStatus parseMemStatus(std::istream& status);

/// Reads /proc/self/status. Throws std::runtime_error when unreadable or
/// when it holds no VmHWM line.
[[nodiscard]] MemStatus readMemStatus();

/// Measured host concurrency: `threads` threads each spin the same fixed
/// amount of work, against one thread doing it alone. Returns
/// threads * t(1) / t(threads): `threads` on a host that runs them all at
/// once, about 1 on a host that time-slices them on one core.
[[nodiscard]] double hostConcurrency(unsigned threads);

/// The highest percentile in {50, 90, 95, 99, 99.9} that leaves at least
/// ten samples beyond it in `samples` samples; nullopt below 20 samples.
[[nodiscard]] std::optional<double> tailPercentile(std::size_t samples);

/// Linear-interpolated percentile `p` (0..100) of `values`; 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// Median of `values`; 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Throughput robust to host contention: `seconds` holds the time of each
/// op (or batch of `opsPerEntry` ops) in run order; every `block`
/// consecutive entries form one block, rated as its ops over its time.
/// Returns percentile `p` of the block rates. A high `p` gives the speed
/// the code reaches whenever the host does not slow it, which repeats far
/// better across runs on a shared host than a mean does. An incomplete
/// last block is dropped unless it is the only one. 0 when empty.
[[nodiscard]] double blockRate(const std::vector<double>& seconds,
                               std::size_t block, double opsPerEntry, double p);

/// 64-bit FNV-1a of `text`, as 16 lowercase hex digits.
[[nodiscard]] std::string digestHex(std::string_view text);

}  // namespace perfbench
