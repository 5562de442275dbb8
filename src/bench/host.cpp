#include "bench/host.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

namespace prtr::bench {
namespace {

/// A dependent xorshift chain the optimizer cannot fold away.
std::uint64_t spin(std::uint64_t iterations) {
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

/// Wall seconds for `threads` threads to each spin `iterations` times.
double timeThreads(unsigned threads, std::uint64_t iterations) {
  std::vector<std::uint64_t> sinks(threads);
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sinks, t, iterations] { sinks[t] = spin(iterations); });
  }
  for (std::thread& th : pool) th.join();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  // Publishing the results keeps the loops in the binary.
  static volatile std::uint64_t sink = 0;
  for (const std::uint64_t s : sinks) sink = sink ^ s;
  return elapsed.count();
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

}  // namespace prtr::bench
