#include "host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

double processCpuSeconds() {
  timespec ts{};
  if (clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts) != 0) {
    throw std::runtime_error("perfbench: CLOCK_PROCESS_CPUTIME_ID unavailable");
  }
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double wallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

MemStatus parseMemStatus(std::istream& status) {
  MemStatus mem;
  std::string line;
  while (std::getline(status, line)) {
    std::uint64_t* field = nullptr;
    if (line.rfind("VmRSS:", 0) == 0) field = &mem.rssKb;
    if (line.rfind("VmHWM:", 0) == 0) field = &mem.hwmKb;
    if (field == nullptr) continue;
    std::istringstream value{line.substr(line.find(':') + 1)};
    value >> *field;
  }
  return mem;
}

MemStatus readMemStatus() {
  std::ifstream in{"/proc/self/status"};
  if (!in) throw std::runtime_error("perfbench: cannot read /proc/self/status");
  const MemStatus mem = parseMemStatus(in);
  if (mem.hwmKb == 0) {
    throw std::runtime_error("perfbench: /proc/self/status has no VmHWM");
  }
  return mem;
}

namespace {

/// A fixed amount of integer work the optimizer cannot fold away.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double timeThreads(unsigned threads, std::uint64_t iterations) {
  std::vector<std::uint64_t> sinks(threads);
  const double start = wallSeconds();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t, iterations] { sinks[t] = spin(iterations); });
  }
  for (std::thread& th : pool) th.join();
  const double elapsed = wallSeconds() - start;
  std::uint64_t folded = 0;
  for (const std::uint64_t s : sinks) folded ^= s;
  // Keeps the results observable so the loops stay in the binary.
  if (folded == 1) std::fputs("", stderr);
  return elapsed;
}

}  // namespace

double hostConcurrency(unsigned threads) {
  threads = std::max(1u, threads);
  constexpr std::uint64_t kIterations = 20'000'000;
  // Best of two per width: a scheduler hiccup can only slow a trial.
  double one = 1e30;
  double many = 1e30;
  for (int trial = 0; trial < 2; ++trial) {
    one = std::min(one, timeThreads(1, kIterations));
    many = std::min(many, timeThreads(threads, kIterations));
  }
  return static_cast<double>(threads) * one / many;
}

std::optional<double> tailPercentile(std::size_t samples) {
  constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  for (const double p : kLadder) {
    // Samples strictly beyond the p-th percentile: n * (1 - p/100).
    const double beyond = static_cast<double>(samples) * (100.0 - p) / 100.0;
    if (beyond >= 10.0 - 1e-9) return p;
  }
  return std::nullopt;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank =
      std::clamp(p, 0.0, 100.0) / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

double blockRate(const std::vector<double>& seconds, std::size_t block,
                 double opsPerEntry, double p) {
  block = std::max<std::size_t>(1, block);
  std::vector<double> rates;
  for (std::size_t begin = 0; begin < seconds.size(); begin += block) {
    const std::size_t end = std::min(begin + block, seconds.size());
    if (end - begin < block && !rates.empty()) break;
    double total = 0.0;
    for (std::size_t i = begin; i < end; ++i) total += seconds[i];
    if (total > 0.0) {
      rates.push_back(static_cast<double>(end - begin) * opsPerEntry / total);
    }
  }
  return percentile(std::move(rates), p);
}

std::string digestHex(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
