// Tests for the common substrate: RNG determinism and distribution
// correctness, streaming statistics, histograms, units and assertions.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/units.hpp"

namespace vdc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 5.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(9);
  // All residues of a small modulus should appear with similar frequency.
  constexpr std::uint64_t n = 7;
  std::array<int, n> counts{};
  constexpr int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_u64(n)];
  for (auto c : counts)
    EXPECT_NEAR(static_cast<double>(c), trials / double(n),
                5.0 * std::sqrt(trials / double(n)));
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(10);
  const double rate = 0.25;
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.exponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.08);
}

TEST(Rng, WeibullShapeOneIsExponential) {
  Rng rng(11);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.weibull(1.0, 2.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(12);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(13);
  Rng child = parent.fork();
  int same = 0;
  for (int i = 0; i < 1000; ++i)
    if (parent.next() == child.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng a(14), b(14);
  Rng ca = a.fork(), cb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(ca.next(), cb.next());
}

TEST(Rng, ChanceExtremes) {
  Rng rng(15);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

// Known-answer values recorded from the out-of-line implementation before
// the hot path moved into the header. SameSeedSameStream only compares the
// generator with itself; these pin the stream every baseline depends on.
TEST(Rng, KnownAnswerRawStream) {
  const std::array<std::uint64_t, 8> seed0 = {
      0x99ec5f36cb75f2b4ull, 0xbf6e1f784956452aull, 0x1a5f849d4933e6e0ull,
      0x6aa594f1262d2d2cull, 0xbba5ad4a1f842e59ull, 0xffef8375d9ebcacaull,
      0x6c160deed2f54c98ull, 0x8920ad648fc30a3full};
  const std::array<std::uint64_t, 8> seed42 = {
      0x15780b2e0c2ec716ull, 0x6104d9866d113a7eull, 0xae17533239e499a1ull,
      0xecb8ad4703b360a1ull, 0xfde6dc7fe2ec5e64ull, 0xc50da53101795238ull,
      0xb82154855a65ddb2ull, 0xd99a2743ebe60087ull};
  Rng a(0), b(42);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(a.next(), seed0[i]) << "seed 0 word " << i;
    EXPECT_EQ(b.next(), seed42[i]) << "seed 42 word " << i;
  }
}

TEST(Rng, KnownAnswerUniform) {
  Rng rng(42);
  EXPECT_EQ(rng.uniform(), 0x1.5780b2e0c2ecp-4);
  EXPECT_EQ(rng.uniform(), 0x1.84136619b444ep-2);
  EXPECT_EQ(rng.uniform(), 0x1.5c2ea66473c93p-1);
  Rng ranged(42);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), -0x1.2a1fd347cf45p+1);
  EXPECT_EQ(ranged.uniform(-3.0, 5.0), 0x1.04d9866d1138p-5);
}

TEST(Rng, KnownAnswerUniformU64) {
  Rng rng(42);
  EXPECT_EQ(rng.uniform_u64(1), 0u);
  EXPECT_EQ(rng.uniform_u64(12), 6u);
  EXPECT_EQ(rng.uniform_u64(128), 33u);
  EXPECT_EQ(rng.uniform_u64(961), 915u);
  EXPECT_EQ(rng.uniform_u64(4033), 2701u);
  // 2^63 + 1 rejects almost half of all draws: exercises the retry loop.
  EXPECT_EQ(rng.uniform_u64((1ull << 63) + 1), 4975814793210974775ull);
}

TEST(Rng, KnownAnswerDerivedDistributions) {
  // These go through libm (log1p, log, cos, pow), so allow a few ulps.
  Rng exp(42);
  EXPECT_DOUBLE_EQ(exp.exponential(0.25), 0x1.66c411e559569p-2);
  EXPECT_DOUBLE_EQ(exp.exponential(2.0), 0x1.e7d36873b4ac6p-3);
  Rng norm(42);
  EXPECT_DOUBLE_EQ(norm.normal(), -0x1.9cfc3b5554226p+0);
  EXPECT_DOUBLE_EQ(norm.normal(3.0, 2.0), 0x1.240e7c2488473p+2);
  Rng weib(42);
  EXPECT_DOUBLE_EQ(weib.weibull(1.5, 2.0), 0x1.93ec030d6cc84p-2);
}

TEST(Rng, KnownAnswerFork) {
  Rng parent(42);
  Rng child = parent.fork();
  EXPECT_EQ(child.next(), 0xf056aaa56c641178ull);
  EXPECT_EQ(child.next(), 0x29d68a12e4107e5aull);
  EXPECT_EQ(child.next(), 0x45a191f78872aee8ull);
  EXPECT_EQ(child.next(), 0x61c8b28462bba716ull);
  // fork() consumed exactly two parent draws.
  EXPECT_EQ(parent.next(), 0xae17533239e499a1ull);
}

TEST(RunningStats, MeanAndVariance) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.ci95_halfwidth(), 0.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  Rng rng(16);
  RunningStats a, b, all;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.normal();
    a.add(x);
    all.add(x);
  }
  for (int i = 0; i < 300; ++i) {
    const double x = rng.uniform(0, 10);
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-10);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-8);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a, b;
  a.add(1.0);
  a.add(3.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 2u);
  b.merge(a);  // adopt
  EXPECT_EQ(b.count(), 2u);
  EXPECT_DOUBLE_EQ(b.mean(), 2.0);
}

TEST(Samples, PercentileInterpolates) {
  Samples s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(Samples, SingleValue) {
  Samples s;
  s.add(42.0);
  EXPECT_DOUBLE_EQ(s.percentile(0), 42.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 42.0);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
}

TEST(Samples, PercentileOfEmptyReturnsZero) {
  // Exporters query histogram series that may never have been observed;
  // an empty set reads as 0.0 rather than tripping an invariant.
  Samples s;
  EXPECT_EQ(s.percentile(50), 0.0);
  EXPECT_EQ(s.percentile(0), 0.0);
  EXPECT_EQ(s.percentile(100), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  s.add(7.0);
  EXPECT_EQ(s.median(), 7.0);
}

TEST(Histogram, BinningAndOutOfRangeCounters) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);   // bin 0
  h.add(9.5);   // bin 9
  h.add(-5.0);  // below range: counted, not folded into bin 0
  h.add(50.0);  // above range: counted, not folded into bin 9
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.bin_low(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bin_high(3), 4.0);
}

TEST(Histogram, RangeEdgesAndCounters) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.0);  // lo is inclusive: bin 0
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.underflow(), 0u);
  h.add(10.0);  // hi is exclusive: overflow, not bin 9
  EXPECT_EQ(h.count(9), 0u);
  EXPECT_EQ(h.overflow(), 1u);
  h.add(std::nextafter(10.0, 0.0));  // largest in-range value: bin 9
  EXPECT_EQ(h.count(9), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_DOUBLE_EQ(h.low(), 0.0);
  EXPECT_DOUBLE_EQ(h.high(), 10.0);
}

TEST(Samples, PercentileInterpolationKat) {
  // Known-answer checks for the linear-interpolation rule:
  // rank = p/100 * (n-1), result = lerp(sorted[floor], sorted[ceil]).
  Samples s;
  s.add(30.0);
  s.add(10.0);
  s.add(20.0);
  s.add(40.0);  // sorted: 10 20 30 40, ranks 0..3
  EXPECT_DOUBLE_EQ(s.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(s.percentile(100.0), 40.0);
  EXPECT_DOUBLE_EQ(s.percentile(50.0), 25.0);    // rank 1.5
  EXPECT_DOUBLE_EQ(s.percentile(25.0), 17.5);    // rank 0.75
  EXPECT_NEAR(s.percentile(99.0), 39.7, 1e-12);  // rank 2.97
  EXPECT_NEAR(s.percentile(99.9), 39.97, 1e-12);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(5.0, 5.0, 10), ConfigError);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
}

TEST(Units, Conversions) {
  EXPECT_DOUBLE_EQ(milliseconds(40), 0.040);
  EXPECT_DOUBLE_EQ(minutes(2), 120.0);
  EXPECT_DOUBLE_EQ(hours(3), 10800.0);
  EXPECT_DOUBLE_EQ(days(2), 172800.0);
  EXPECT_EQ(kib(4), 4096u);
  EXPECT_EQ(mib(1), 1048576u);
  EXPECT_EQ(gib(1), 1073741824u);
  EXPECT_DOUBLE_EQ(gbit_per_s(8), 1e9);
}

TEST(Assert, MacrosThrowTypedErrors) {
  EXPECT_THROW(VDC_ASSERT(false), InvariantError);
  EXPECT_THROW(VDC_ASSERT_MSG(1 == 2, "nope"), InvariantError);
  EXPECT_THROW(VDC_REQUIRE(false, "bad config"), ConfigError);
  EXPECT_NO_THROW(VDC_ASSERT(true));
  EXPECT_NO_THROW(VDC_REQUIRE(true, "fine"));
}

TEST(Assert, MessageContainsLocation) {
  try {
    VDC_ASSERT_MSG(false, "custom detail");
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom detail"), std::string::npos);
    EXPECT_NE(what.find("common_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace vdc
