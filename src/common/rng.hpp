#pragma once
// Deterministic, seedable random number generation.
//
// All stochastic behaviour in the library flows through Rng so that every
// simulation is exactly reproducible from a 64-bit seed. The generator is
// xoshiro256** (public domain, Blackman & Vigna) seeded via SplitMix64,
// which gives well-distributed state even from small seeds.

#include <array>
#include <bit>
#include <cstdint>

#include "common/assert.hpp"

namespace vdc {

/// xoshiro256** PRNG with convenience distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-initialise state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed);

  /// Next raw 64-bit value. Inline: guest-write synthesis draws one per
  /// byte. Loops that store draws into a byte buffer should draw through a
  /// local copy of the generator and assign it back afterwards, otherwise
  /// the compiler must assume each store may alias `s_` and reloads it.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adaptors).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ull; }
  result_type operator()() { return next(); }

  /// Uniform double in [0, 1): the 53 high bits of one draw.
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) {
    VDC_ASSERT(lo <= hi);
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0. Unbiased: draws below
  /// (2^64 - n) mod n are rejected so every residue has the same number of
  /// accepting draws (threshold rejection, as in arc4random_uniform).
  std::uint64_t uniform_u64(std::uint64_t n) {
    VDC_ASSERT(n > 0);
    const std::uint64_t threshold = (~n + 1) % n;  // (2^64 - n) mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Exponentially distributed variate with the given rate (1/mean).
  double exponential(double rate);

  /// Weibull(shape k, scale lambda) variate.
  double weibull(double shape, double scale);

  /// Standard normal via Box–Muller (no cached spare; deterministic order).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Bernoulli trial.
  bool chance(double p) { return uniform() < p; }

  /// Fork a child RNG whose stream is decorrelated from this one.
  /// Useful to give each component an independent deterministic stream.
  Rng fork();

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace vdc
