#pragma once
/// \file rng.hpp
/// Deterministic pseudo-random number generation (xoshiro256**).
///
/// All stochastic components (workload generators, synthetic frame payloads,
/// random cache policies) draw from this generator so that every experiment
/// is bit-reproducible across platforms, unlike std::default_random_engine.

#include <array>
#include <cstdint>
#include <limits>

namespace prtr::util {

/// xoshiro256** 1.0 by Blackman & Vigna (public domain reference algorithm).
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four 64-bit lanes from a single seed via splitmix64.
  constexpr explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept {
    std::uint64_t x = seed;
    for (auto& lane : state_) lane = splitmix64(x);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The four state words, in order, so that a vectorized generator can
  /// step several seeded streams in lock step (bitstream payloads do).
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state() const noexcept {
    return {state_[0], state_[1], state_[2], state_[3]};
  }

  /// Uniform double in [0, 1).
  constexpr double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Integer in [0, n): one 64-bit draw reduced modulo n, with no rejection.
  /// Each value has probability floor(2^64/n)/2^64 or ceil(2^64/n)/2^64, so
  /// it misses 1/n by less than 2^-64 (relative bias below n/2^64), which is
  /// negligible for simulation workloads (n << 2^64). The reduction is part
  /// of the determinism contract: seeded workloads and payloads depend on
  /// it, so switching to another (e.g. Lemire's multiply-shift) changes
  /// every output that draws from below() or range().
  constexpr std::uint64_t below(std::uint64_t n) noexcept {
    return n == 0 ? 0 : (*this)() % n;
  }

  /// Uniform integer in [lo, hi] inclusive.
  constexpr std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo + 1)));
  }

  /// Bernoulli trial with probability p of returning true.
  constexpr bool chance(double p) noexcept { return uniform() < p; }

  /// Geometric-ish exponential variate with the given mean (> 0).
  double exponential(double mean) noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  static constexpr std::uint64_t splitmix64(std::uint64_t& x) noexcept {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_[4] = {};
};

}  // namespace prtr::util
