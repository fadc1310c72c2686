#include "mech/wavelet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "util/stats.h"

namespace blowfish {
namespace {

// --- Haar transform: the reference the lazy release is checked against ---

/// Unnormalized Haar decomposition of a power-of-two-length vector.
/// coefficients[0] is the overall average; detail coefficients follow in
/// breadth-first order (coefficients[1] = root detail, etc.).
std::vector<double> HaarDecompose(const std::vector<double>& values) {
  const size_t n = values.size();
  assert(n > 0 && (n & (n - 1)) == 0);
  std::vector<double> averages = values;
  // Details level by level, built bottom-up, emitted top-down.
  std::vector<std::vector<double>> detail_levels;
  size_t width = n;
  while (width > 1) {
    width /= 2;
    std::vector<double> next(width);
    std::vector<double> details(width);
    for (size_t i = 0; i < width; ++i) {
      const double left = averages[2 * i];
      const double right = averages[2 * i + 1];
      next[i] = (left + right) / 2.0;
      details[i] = (left - right) / 2.0;
    }
    detail_levels.push_back(std::move(details));
    averages = std::move(next);
  }
  std::vector<double> out = {averages[0]};
  for (size_t l = detail_levels.size(); l-- > 0;) {
    out.insert(out.end(), detail_levels[l].begin(), detail_levels[l].end());
  }
  return out;
}

/// Inverse of HaarDecompose.
std::vector<double> HaarReconstruct(const std::vector<double>& coefficients) {
  const size_t n = coefficients.size();
  assert(n > 0 && (n & (n - 1)) == 0);
  std::vector<double> averages = {coefficients[0]};
  size_t offset = 1;
  while (averages.size() < n) {
    const size_t width = averages.size();
    std::vector<double> next(2 * width);
    for (size_t i = 0; i < width; ++i) {
      const double d = coefficients[offset + i];
      next[2 * i] = averages[i] + d;
      next[2 * i + 1] = averages[i] - d;
    }
    offset += width;
    averages = std::move(next);
  }
  return averages;
}

TEST(HaarTest, RoundTripPowerOfTwo) {
  Random rng(1);
  for (size_t n : {1, 2, 4, 8, 64, 1024}) {
    std::vector<double> values(n);
    for (double& v : values) v = rng.Uniform(-10, 10);
    std::vector<double> coef = HaarDecompose(values);
    ASSERT_EQ(coef.size(), n);
    std::vector<double> back = HaarReconstruct(coef);
    ASSERT_EQ(back.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(back[i], values[i], 1e-9) << "n=" << n << " i=" << i;
    }
  }
}

TEST(HaarTest, FirstCoefficientIsAverage) {
  std::vector<double> values = {1.0, 3.0, 5.0, 7.0};
  std::vector<double> coef = HaarDecompose(values);
  EXPECT_DOUBLE_EQ(coef[0], 4.0);
  // Root detail = (avg first half - avg second half) / 2 = (2 - 6)/2.
  EXPECT_DOUBLE_EQ(coef[1], -2.0);
}

TEST(HaarTest, ConstantVectorHasZeroDetails) {
  std::vector<double> values(16, 3.5);
  std::vector<double> coef = HaarDecompose(values);
  EXPECT_DOUBLE_EQ(coef[0], 3.5);
  for (size_t i = 1; i < coef.size(); ++i) {
    EXPECT_DOUBLE_EQ(coef[i], 0.0);
  }
}

// One-bucket change alters the average by 1/N and one detail per level
// with magnitude 2^-(m-l) — the sensitivities the mechanism calibrates
// to.
TEST(HaarTest, SingleBucketSensitivityPattern) {
  const size_t n = 16;  // m = 4
  std::vector<double> base(n, 0.0);
  std::vector<double> bumped = base;
  bumped[5] += 1.0;
  std::vector<double> c0 = HaarDecompose(base);
  std::vector<double> c1 = HaarDecompose(bumped);
  EXPECT_NEAR(std::fabs(c1[0] - c0[0]), 1.0 / 16, 1e-12);
  // Count nonzero detail diffs per level and check magnitudes.
  size_t offset = 1;
  const size_t m = 4;
  for (size_t l = 0; l < m; ++l) {
    size_t count = size_t{1} << l;
    size_t changed = 0;
    for (size_t i = 0; i < count; ++i) {
      double diff = std::fabs(c1[offset + i] - c0[offset + i]);
      if (diff > 1e-12) {
        ++changed;
        EXPECT_NEAR(diff, 1.0 / static_cast<double>(size_t{1} << (m - l)),
                    1e-12)
            << "level " << l;
      }
    }
    EXPECT_EQ(changed, 1u) << "level " << l;
    offset += count;
  }
}

// --- Mechanism ---

TEST(WaveletMechanismTest, Validation) {
  Random rng(1);
  Histogram empty(0);
  EXPECT_FALSE(WaveletMechanism::Release(empty, 1.0, rng).ok());
  Histogram data(10);
  EXPECT_FALSE(WaveletMechanism::Release(data, 0.0, rng).ok());
  EXPECT_TRUE(WaveletMechanism::Release(data, 1.0, rng).ok());
}

TEST(WaveletMechanismTest, PadsToPowerOfTwo) {
  Random rng(2);
  Histogram data(4357);
  auto m = WaveletMechanism::Release(data, 1.0, rng).value();
  EXPECT_EQ(m.domain_size(), 4357u);
  EXPECT_EQ(m.padded_size(), 8192u);
  EXPECT_EQ(m.height(), 13u);
}

TEST(WaveletMechanismTest, QueryBounds) {
  Random rng(3);
  Histogram data(100);
  auto m = WaveletMechanism::Release(data, 1.0, rng).value();
  EXPECT_FALSE(m.RangeQuery(5, 4).ok());
  EXPECT_FALSE(m.RangeQuery(0, 100).ok());
  EXPECT_FALSE(m.CumulativeCount(100).ok());
  EXPECT_TRUE(m.RangeQuery(0, 99).ok());
}

TEST(WaveletMechanismTest, RangeQueriesUnbiased) {
  Random data_rng(4);
  Histogram data(256);
  for (int i = 0; i < 4000; ++i) {
    data.Add(static_cast<size_t>(data_rng.UniformInt(0, 255)));
  }
  double truth = data.RangeSum(30, 200).value();
  Random rng(5);
  std::vector<double> errors;
  for (int rep = 0; rep < 400; ++rep) {
    auto m = WaveletMechanism::Release(data, 1.0, rng).value();
    errors.push_back(m.RangeQuery(30, 200).value() - truth);
  }
  EXPECT_NEAR(Mean(errors), 0.0, 4.0);
}

// The lazy release against the materialized one it replaces: decompose
// the padded histogram, add KeyedLaplace(key, i, scale_i) to coefficient
// i (its breadth-first index, so every coefficient has its own counter),
// reconstruct, and prefix-sum. The two differ only by floating-point
// rounding in the transform.
std::vector<double> ReferencePrefixes(const Histogram& data, double epsilon,
                                      uint64_t key) {
  size_t padded = 1, m = 0;
  while (padded < data.size()) {
    padded *= 2;
    ++m;
  }
  std::vector<double> values = data.counts();
  values.resize(padded, 0.0);
  std::vector<double> coef = HaarDecompose(values);
  const double eps_slot = epsilon / (2.0 * static_cast<double>(m + 1));
  coef[0] += KeyedLaplace(key, 0, (1.0 / static_cast<double>(padded)) /
                                      eps_slot);
  for (size_t l = 0; l < m; ++l) {
    const double sens = 1.0 / static_cast<double>(size_t{1} << (m - l));
    for (size_t i = size_t{1} << l; i < size_t{2} << l; ++i) {
      coef[i] += KeyedLaplace(key, i, sens / eps_slot);
    }
  }
  std::vector<double> prefix = HaarReconstruct(coef);
  for (size_t i = 1; i < prefix.size(); ++i) prefix[i] += prefix[i - 1];
  prefix.resize(data.size());
  return prefix;
}

TEST(WaveletMechanismTest, LazyReleaseMatchesHaarReference) {
  Random gen(17);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = static_cast<size_t>(
        trial < 8 ? trial + 1 : gen.UniformInt(1, 3000));
    Histogram data(n);
    const int64_t tuples = gen.UniformInt(0, 20000);
    for (int64_t i = 0; i < tuples; ++i) {
      data.Add(static_cast<size_t>(
          gen.UniformInt(0, static_cast<int64_t>(n) - 1)));
    }
    const double eps = gen.Uniform(0.05, 2.0);
    Random rng(static_cast<uint64_t>(trial));
    Random key_source = rng;  // the release takes its key as one draw
    const uint64_t key = key_source.engine()();
    auto m = WaveletMechanism::Release(data, eps, rng);
    ASSERT_TRUE(m.ok()) << m.status().ToString();
    const std::vector<double> want = ReferencePrefixes(data, eps, key);
    for (size_t j = 0; j < n; ++j) {
      const double got = m->CumulativeCount(j).value();
      ASSERT_NEAR(got, want[j], 1e-12 * std::max(1.0, std::fabs(want[j])))
          << "trial " << trial << " n=" << n << " j=" << j;
    }
    const size_t a = static_cast<size_t>(
        gen.UniformInt(0, static_cast<int64_t>(n) - 1));
    const size_t b = static_cast<size_t>(
        gen.UniformInt(0, static_cast<int64_t>(n) - 1));
    const size_t lo = std::min(a, b), hi = std::max(a, b);
    EXPECT_EQ(m->RangeQuery(lo, hi).value(),
              m->CumulativeCount(hi).value() -
                  (lo > 0 ? m->CumulativeCount(lo - 1).value() : 0.0));
  }
}

// Privacy accounting: for any two histograms differing by one unit move,
// the sum over coefficients of |delta| / scale must be <= eps. Checked
// exhaustively over all (x, y) moves in a small domain.
TEST(WaveletMechanismTest, PrivacyBudgetCoversAllMoves) {
  const size_t n = 16;  // padded = 16, m = 4
  const size_t m = 4;
  const double eps = 0.8;
  const double eps_slot = eps / (2.0 * (m + 1));
  auto log_ratio = [&](size_t from, size_t to) {
    std::vector<double> h1(n, 2.0), h2(n, 2.0);
    h2[from] -= 1.0;
    h2[to] += 1.0;
    std::vector<double> c1 = HaarDecompose(h1);
    std::vector<double> c2 = HaarDecompose(h2);
    double total =
        std::fabs(c1[0] - c2[0]) / ((1.0 / n) / eps_slot);
    size_t offset = 1;
    for (size_t l = 0; l < m; ++l) {
      size_t count = size_t{1} << l;
      double sens = 1.0 / static_cast<double>(size_t{1} << (m - l));
      for (size_t i = 0; i < count; ++i) {
        total += std::fabs(c1[offset + i] - c2[offset + i]) /
                 (sens / eps_slot);
      }
      offset += count;
    }
    return total;
  };
  double worst = 0.0;
  for (size_t x = 0; x < n; ++x) {
    for (size_t y = 0; y < n; ++y) {
      if (x != y) worst = std::max(worst, log_ratio(x, y));
    }
  }
  EXPECT_LE(worst, eps + 1e-9);
}

// Error comparison: the wavelet baseline should be in the same regime as
// the hierarchical mechanism (both polylog), far above the line-graph
// Ordered Mechanism on sparse data — context for Fig 2.
TEST(WaveletMechanismTest, ErrorRegimeSanity) {
  Random data_rng(7);
  Histogram data(1024);
  for (int i = 0; i < 10000; ++i) {
    data.Add(static_cast<size_t>(data_rng.UniformInt(0, 1023)));
  }
  Random rng(8);
  double mse = 0.0;
  double truth = data.RangeSum(100, 800).value();
  const int reps = 200;
  for (int rep = 0; rep < reps; ++rep) {
    auto m = WaveletMechanism::Release(data, 1.0, rng).value();
    double e = m.RangeQuery(100, 800).value() - truth;
    mse += e * e;
  }
  mse /= reps;
  // Very loose sanity window: positive, and far below per-bucket naive
  // summation error (701 buckets * 2*(2/eps)^2 = 5608).
  EXPECT_GT(mse, 1.0);
  EXPECT_LT(mse, 5608.0);
}

}  // namespace
}  // namespace blowfish
