#include "util/random.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/stats.h"

namespace blowfish {
namespace {

TEST(RandomTest, DeterministicFromSeed) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Uniform() == b.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, UniformInRange) {
  Random rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(RandomTest, UniformIntInclusiveBounds) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(0, 9);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 9);
    saw_lo |= (v == 0);
    saw_hi |= (v == 9);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, BernoulliExtremes) {
  Random rng(3);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

// Laplace(b) has mean 0 and variance 2 b^2; check both empirically.
TEST(RandomTest, LaplaceMoments) {
  Random rng(123);
  const double scale = 2.5;
  const size_t n = 200000;
  std::vector<double> draws(n);
  for (size_t i = 0; i < n; ++i) draws[i] = rng.Laplace(scale);
  EXPECT_NEAR(Mean(draws), 0.0, 0.05);
  EXPECT_NEAR(Variance(draws), 2.0 * scale * scale, 0.3);
}

// P(|Z| > t) = exp(-t/b) for Laplace; at t = b ln 2 the tail mass is 1/2.
TEST(RandomTest, LaplaceTailProbability) {
  Random rng(9);
  const double t = std::log(2.0);
  size_t beyond = 0;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    if (std::fabs(rng.Laplace(1.0)) > t) ++beyond;
  }
  EXPECT_NEAR(static_cast<double>(beyond) / n, 0.5, 0.01);
}

TEST(RandomTest, LaplaceSymmetry) {
  Random rng(31);
  size_t positive = 0;
  const size_t n = 100000;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Laplace(3.0) > 0.0) ++positive;
  }
  EXPECT_NEAR(static_cast<double>(positive) / n, 0.5, 0.01);
}

TEST(RandomTest, LaplaceVectorSizeAndIndependence) {
  Random rng(11);
  std::vector<double> v = rng.LaplaceVector(1000, 1.0);
  ASSERT_EQ(v.size(), 1000u);
  // Lag-1 sample autocorrelation should be near zero.
  double mean = Mean(v);
  double num = 0.0, den = 0.0;
  for (size_t i = 0; i + 1 < v.size(); ++i) {
    num += (v[i] - mean) * (v[i + 1] - mean);
  }
  for (size_t i = 0; i < v.size(); ++i) {
    den += (v[i] - mean) * (v[i] - mean);
  }
  EXPECT_LT(std::fabs(num / den), 0.1);
}

TEST(RandomTest, GaussianMoments) {
  Random rng(77);
  const size_t n = 100000;
  std::vector<double> draws(n);
  for (size_t i = 0; i < n; ++i) draws[i] = rng.Gaussian(5.0, 3.0);
  EXPECT_NEAR(Mean(draws), 5.0, 0.05);
  EXPECT_NEAR(Variance(draws), 9.0, 0.2);
}

TEST(RandomTest, ForkProducesDistinctStream) {
  Random a(42);
  Random fork = a.Fork();
  int equal = 0;
  for (int i = 0; i < 50; ++i) {
    if (fork.Uniform() == a.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RandomTest, StreamForkIsReproducible) {
  Random a(42), b(42);
  // Draw from `a` first: stream forks must not depend on generator state.
  for (int i = 0; i < 17; ++i) a.Uniform();
  Random fa = a.Fork(uint64_t{5});
  Random fb = b.Fork(uint64_t{5});
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(fa.Uniform(), fb.Uniform());
  }
}

TEST(RandomTest, StreamForksDiffer) {
  Random root(42);
  Random s0 = root.Fork(uint64_t{0});
  Random s1 = root.Fork(uint64_t{1});
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.Uniform() == s1.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(RandomTest, StreamForkDiffersFromRootStream) {
  // Fork(id) must not just reuse the root seed: stream 0 of seed 42 and a
  // fresh Random(42) should be unrelated sequences.
  Random root(42);
  Random s0 = root.Fork(uint64_t{0});
  Random raw(42);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (s0.Uniform() == raw.Uniform()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

// --- KeyedLaplace ---

// Pinned draws: the keyed stream must not move when the code around it
// does, or a seed would stop reproducing its releases.
TEST(KeyedLaplaceTest, GoldenValues) {
  EXPECT_DOUBLE_EQ(KeyedLaplace(0, 0, 1.0), 0.36369520375363729);
  EXPECT_DOUBLE_EQ(KeyedLaplace(0, 1, 1.0), -0.30601030463028162);
  EXPECT_DOUBLE_EQ(KeyedLaplace(42, 7, 2.5), -0.36369330478677409);
  EXPECT_DOUBLE_EQ(KeyedLaplace(0x9E3779B97F4A7C15ULL, 87380, 6.0), 4.9423539293838008);
}

TEST(KeyedLaplaceTest, PureFunctionOfKeyAndCounter) {
  EXPECT_EQ(KeyedLaplace(5, 9, 3.0), KeyedLaplace(5, 9, 3.0));
  EXPECT_NE(KeyedLaplace(5, 9, 3.0), KeyedLaplace(5, 10, 3.0));
  EXPECT_NE(KeyedLaplace(5, 9, 3.0), KeyedLaplace(6, 9, 3.0));
  // The scale multiplies one standard draw.
  EXPECT_DOUBLE_EQ(KeyedLaplace(5, 9, 3.0), 3.0 * KeyedLaplace(5, 9, 1.0));
}

// Laplace(b): mean 0, variance 2 b^2, P(|Z| > t) = exp(-t / b), and
// neighbouring counters uncorrelated.
TEST(KeyedLaplaceTest, Moments) {
  const double b = 1.5;
  const uint64_t n = 200000;
  std::vector<double> draws(n);
  for (uint64_t i = 0; i < n; ++i) draws[i] = KeyedLaplace(77, i, b);
  EXPECT_NEAR(Mean(draws), 0.0, 0.03);
  EXPECT_NEAR(Variance(draws) / (2.0 * b * b), 1.0, 0.03);
  size_t beyond = 0;
  double lag1 = 0.0;
  for (uint64_t i = 0; i < n; ++i) {
    if (std::fabs(draws[i]) > 2.0 * b) ++beyond;
    if (i > 0) lag1 += draws[i] * draws[i - 1];
  }
  EXPECT_NEAR(static_cast<double>(beyond) / n, std::exp(-2.0), 0.005);
  EXPECT_NEAR(lag1 / (n - 1) / (2.0 * b * b), 0.0, 0.02);
}

}  // namespace
}  // namespace blowfish
