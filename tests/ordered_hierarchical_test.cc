#include "mech/ordered_hierarchical.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "util/stats.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeLine(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Histogram RandomData(size_t domain, size_t total, uint64_t seed) {
  Random rng(seed);
  Histogram h(domain);
  for (size_t i = 0; i < total; ++i) {
    h.Add(static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(domain) - 1)));
  }
  return h;
}

// --- OHErrorModel (Eqns 13-15) ---

TEST(OHErrorModelTest, BoundaryCases) {
  // theta = |T|: c1 = 0 -> all budget to H.
  OHErrorModel at_full = OHErrorModel::Compute(1024, 1024, 16);
  EXPECT_DOUBLE_EQ(at_full.c1, 0.0);
  EXPECT_GT(at_full.c2, 0.0);
  EXPECT_DOUBLE_EQ(at_full.OptimalSFraction(), 0.0);
  // theta = 1: c2 = 0 -> all budget to S.
  OHErrorModel at_one = OHErrorModel::Compute(1024, 1, 16);
  EXPECT_GT(at_one.c1, 0.0);
  EXPECT_DOUBLE_EQ(at_one.c2, 0.0);
  EXPECT_DOUBLE_EQ(at_one.OptimalSFraction(), 1.0);
}

TEST(OHErrorModelTest, ConstantsMatchFormulas) {
  const size_t t = 4357, theta = 100, f = 16;
  OHErrorModel m = OHErrorModel::Compute(t, theta, f);
  double logf = std::log(100.0) / std::log(16.0);
  EXPECT_NEAR(m.c1, 4.0 * (4357.0 - 100.0) / 4358.0, 1e-9);
  EXPECT_NEAR(m.c2, 8.0 * 15.0 * logf * logf * logf * 4357.0 / 4358.0,
              1e-6);
}

TEST(OHErrorModelTest, OptimumMinimizesRangeError) {
  OHErrorModel m = OHErrorModel::Compute(4357, 100, 16);
  const double eps = 1.0;
  double star = m.OptimalSFraction();
  double best = m.RangeError(star * eps, (1.0 - star) * eps);
  EXPECT_NEAR(best, m.OptimalRangeError(eps), 1e-9);
  for (double frac : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    EXPECT_GE(m.RangeError(frac * eps, (1.0 - frac) * eps), best - 1e-9)
        << "frac " << frac;
  }
}

TEST(OHErrorModelTest, ZeroBudgetSideIsInfinite) {
  OHErrorModel m = OHErrorModel::Compute(4357, 100, 16);
  EXPECT_TRUE(std::isinf(m.RangeError(0.0, 1.0)));
  EXPECT_TRUE(std::isinf(m.RangeError(1.0, 0.0)));
}

// --- Release: structure ---

TEST(OrderedHierarchicalTest, StructureMatchesTheta) {
  auto dom = MakeLine(64);
  Policy p = Policy::DistanceThreshold(dom, 8.0).value();
  Histogram data = RandomData(64, 500, 3);
  Random rng(5);
  OrderedHierarchicalOptions opts;
  opts.fanout = 4;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  EXPECT_EQ(m.theta_steps(), 8u);
  EXPECT_EQ(m.num_s_nodes(), 8u);  // ceil(64/8)
  EXPECT_EQ(m.subtree_height(), 2u);  // log_4 8 -> ceil = 2
}

TEST(OrderedHierarchicalTest, ThetaOneDegeneratesToOrdered) {
  auto dom = MakeLine(32);
  Policy p = Policy::Line(dom).value();
  Histogram data = RandomData(32, 200, 7);
  Random rng(9);
  OrderedHierarchicalOptions opts;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  EXPECT_EQ(m.theta_steps(), 1u);
  EXPECT_EQ(m.num_s_nodes(), 32u);
  EXPECT_EQ(m.subtree_height(), 0u);  // no H subtrees
}

TEST(OrderedHierarchicalTest, ThetaFullDegeneratesToHierarchical) {
  auto dom = MakeLine(32);
  Policy p = Policy::FullDomain(dom).value();
  Histogram data = RandomData(32, 200, 7);
  Random rng(9);
  OrderedHierarchicalOptions opts;
  opts.fanout = 4;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  EXPECT_EQ(m.theta_steps(), 32u);
  EXPECT_EQ(m.num_s_nodes(), 1u);
  EXPECT_EQ(m.subtree_height(), 3u);  // log_4 32 -> ceil = 3
}

TEST(OrderedHierarchicalTest, Validation) {
  auto dom = MakeLine(32);
  Policy p = Policy::Line(dom).value();
  Histogram data(32);
  Random rng(1);
  OrderedHierarchicalOptions opts;
  EXPECT_FALSE(
      OrderedHierarchicalMechanism::Release(data, p, 0.0, opts, rng).ok());
  Histogram wrong(16);
  EXPECT_FALSE(
      OrderedHierarchicalMechanism::Release(wrong, p, 1.0, opts, rng).ok());
  auto grid =
      std::make_shared<const Domain>(Domain::Grid(6, 2).value());
  Policy p2d = Policy::DistanceThreshold(grid, 2.0).value();
  Histogram data2d(36);
  EXPECT_FALSE(
      OrderedHierarchicalMechanism::Release(data2d, p2d, 1.0, opts, rng)
          .ok());
}

TEST(OrderedHierarchicalTest, SubResolutionThetaRejected) {
  auto dom = std::make_shared<const Domain>(
      Domain::Line(32, /*scale=*/10.0).value());
  Policy p = Policy::DistanceThreshold(dom, 5.0).value();  // < scale
  Histogram data(32);
  Random rng(1);
  OrderedHierarchicalOptions opts;
  EXPECT_EQ(OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

// --- Release: accuracy ---

class OHAccuracyTest : public ::testing::TestWithParam<double /*theta*/> {};

TEST_P(OHAccuracyTest, CumulativeCountsAreUnbiased) {
  const double theta = GetParam();
  auto dom = MakeLine(128);
  Policy p = Policy::DistanceThreshold(dom, theta).value();
  Histogram data = RandomData(128, 2000, 21);
  std::vector<double> truth = data.CumulativeSums();
  Random rng(23);
  OrderedHierarchicalOptions opts;
  opts.fanout = 4;
  std::vector<double> errors;
  for (int rep = 0; rep < 200; ++rep) {
    auto m = OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng)
                 .value();
    errors.push_back(m.CumulativeCount(77).value() - truth[77]);
  }
  EXPECT_NEAR(Mean(errors), 0.0, 2.5) << "theta " << theta;
}

INSTANTIATE_TEST_SUITE_P(Thetas, OHAccuracyTest,
                         ::testing::Values(1.0, 4.0, 16.0, 128.0));

// Release + querying must be consistent across fan-outs, including ones
// that leave ragged last blocks.
class OHFanoutTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OHFanoutTest, AllRangeQueriesAnswerable) {
  const size_t fanout = GetParam();
  auto dom = MakeLine(100);  // blocks of 7: ragged everywhere
  Policy p = Policy::DistanceThreshold(dom, 7.0).value();
  Histogram data = RandomData(100, 1500, 61);
  Random rng(67);
  OrderedHierarchicalOptions opts;
  opts.fanout = fanout;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  for (size_t lo = 0; lo < 100; lo += 13) {
    for (size_t hi = lo; hi < 100; hi += 17) {
      ASSERT_TRUE(m.RangeQuery(lo, hi).ok()) << fanout;
    }
  }
  // Full-domain cumulative count should be near n.
  EXPECT_NEAR(m.CumulativeCount(99).value(), 1500.0, 200.0) << fanout;
}

INSTANTIATE_TEST_SUITE_P(Fanouts, OHFanoutTest,
                         ::testing::Values(2, 3, 4, 16));

TEST(OrderedHierarchicalTest, RangeQueryMatchesCumulativeDifference) {
  auto dom = MakeLine(64);
  Policy p = Policy::DistanceThreshold(dom, 8.0).value();
  Histogram data = RandomData(64, 400, 31);
  Random rng(33);
  OrderedHierarchicalOptions opts;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  double direct = m.RangeQuery(10, 45).value();
  double via_cum =
      m.CumulativeCount(45).value() - m.CumulativeCount(9).value();
  EXPECT_NEAR(direct, via_cum, 1e-9);
  EXPECT_FALSE(m.RangeQuery(5, 4).ok());
  EXPECT_FALSE(m.RangeQuery(0, 64).ok());
}

// Small theta should beat the pure hierarchical strategy (theta = |T|),
// the headline of Fig 2(b)/2(c).
TEST(OrderedHierarchicalTest, SmallThetaBeatsFullTheta) {
  auto dom = MakeLine(1024);
  Histogram data = RandomData(1024, 5000, 41);
  const double eps = 0.5;
  OrderedHierarchicalOptions opts;
  opts.fanout = 16;
  auto run = [&](const Policy& p, uint64_t seed) {
    Random rng(seed);
    double mse = 0.0;
    Random qrng(99);  // same queries for both strategies
    std::vector<std::pair<size_t, size_t>> queries;
    for (int i = 0; i < 50; ++i) {
      size_t a = static_cast<size_t>(qrng.UniformInt(0, 1023));
      size_t b = static_cast<size_t>(qrng.UniformInt(0, 1023));
      queries.emplace_back(std::min(a, b), std::max(a, b));
    }
    const int reps = 40;
    for (int rep = 0; rep < reps; ++rep) {
      auto m = OrderedHierarchicalMechanism::Release(data, p, eps, opts, rng)
                   .value();
      for (auto [lo, hi] : queries) {
        double truth = data.RangeSum(lo, hi).value();
        double e = m.RangeQuery(lo, hi).value() - truth;
        mse += e * e;
      }
    }
    return mse / (reps * queries.size());
  };
  double mse_theta1 = run(Policy::Line(dom).value(), 1);
  double mse_full = run(Policy::FullDomain(dom).value(), 2);
  EXPECT_LT(mse_theta1, mse_full / 5.0);
}

// Consistency post-processing keeps outputs valid and roughly monotone.
TEST(OrderedHierarchicalTest, ConsistencyOptionRuns) {
  auto dom = MakeLine(64);
  Policy p = Policy::DistanceThreshold(dom, 8.0).value();
  Histogram data = RandomData(64, 400, 51);
  Random rng(53);
  OrderedHierarchicalOptions opts;
  opts.consistency = true;
  auto m =
      OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng).value();
  // S-node prefix sequence must be non-decreasing after isotonization;
  // the cumulative count at a block's last bucket is its S node.
  for (size_t l = 1; l < m.num_s_nodes(); ++l) {
    EXPECT_GE(m.CumulativeCount(8 * (l + 1) - 1).value() + 1e-9,
              m.CumulativeCount(8 * l - 1).value());
  }
}

// A split that leaves either node class without budget would publish
// that class exactly; the release refuses it when both classes exist.
TEST(OrderedHierarchicalTest, ZeroBudgetNodeClassRefused) {
  auto dom = MakeLine(64);
  Policy p = Policy::DistanceThreshold(dom, 8.0).value();
  Histogram data = RandomData(64, 500, 3);
  for (double frac : {0.0, 1.0}) {
    Random rng(5);
    OrderedHierarchicalOptions opts;
    opts.eps_s_fraction = frac;
    EXPECT_EQ(OrderedHierarchicalMechanism::Release(data, p, 1.0, opts, rng)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "frac " << frac;
  }
  // At theta = 1 and theta = |T| only one class exists, and the split is
  // forced whatever was asked.
  for (const Policy& degenerate :
       {Policy::Line(dom).value(), Policy::FullDomain(dom).value()}) {
    Random rng(5);
    OrderedHierarchicalOptions opts;
    opts.eps_s_fraction = 0.0;
    EXPECT_TRUE(OrderedHierarchicalMechanism::Release(data, degenerate, 1.0,
                                                      opts, rng)
                    .ok());
  }
}

// --- Lazy release vs a materialized oracle ---
//
// The oracle noises every node of the Fig 2(a) structure up front, from
// the same keyed draws under the documented counter layout (S node l:
// counter l; block b's H node at level-order position i: k + b * stride
// + i), and answers through IntervalTree::PrefixSum. The lazy release
// must equal it exactly: same node values, summed in the same order.

/// Every H node counter of block `b`, in level order.
std::vector<uint64_t> BlockCounters(size_t k, size_t stride, size_t b,
                                    const IntervalTree& tree) {
  std::vector<uint64_t> out;
  for (const std::vector<double>& level : tree.levels) {
    for (size_t i = 0; i < level.size(); ++i) {
      out.push_back(k + b * stride + out.size());
    }
  }
  return out;
}

struct Oracle {
  size_t theta = 0;
  std::vector<double> s_nodes;
  std::vector<IntervalTree> h_trees;

  double CumulativeCount(size_t j) const {
    const size_t len = j + 1;
    double total = 0.0;
    if (len / theta >= 1) total += s_nodes[len / theta - 1];
    if (len % theta > 0) total += h_trees[len / theta].PrefixSum(len % theta);
    return total;
  }
};

Oracle Materialize(const Histogram& data, size_t theta, double epsilon,
                   const OrderedHierarchicalOptions& opts, uint64_t key) {
  const size_t n = data.size();
  const size_t k = (n + theta - 1) / theta;
  double frac = opts.eps_s_fraction >= 0.0
                    ? opts.eps_s_fraction
                    : OHErrorModel::Compute(n, theta, opts.fanout)
                          .OptimalSFraction();
  if (theta == 1) frac = 1.0;
  if (theta >= n) frac = 0.0;
  const double eps_s = frac * epsilon;
  const double eps_h = epsilon - eps_s;
  const std::vector<double> leaves_all = data.counts();
  Oracle o;
  o.theta = theta;
  size_t stride = 0;
  size_t height = 0;
  if (theta > 1) {
    IntervalTree full = IntervalTree::Build(theta, opts.fanout).value();
    for (const auto& level : full.levels) stride += level.size();
    height = full.height();
  }
  const double path = static_cast<double>(height + 1);
  for (size_t b = 0; theta > 1 && b < k; ++b) {
    const size_t lo = b * theta;
    const size_t hi = std::min(lo + theta, n);
    IntervalTree tree = IntervalTree::Build(hi - lo, opts.fanout).value();
    tree.PopulateFromLeaves(std::vector<double>(
        leaves_all.begin() + static_cast<std::ptrdiff_t>(lo),
        leaves_all.begin() + static_cast<std::ptrdiff_t>(hi)));
    const double scale = 2.0 * path / (b == 0 ? eps_s + eps_h : eps_h);
    const std::vector<uint64_t> counters = BlockCounters(k, stride, b, tree);
    size_t c = 0;
    for (auto& level : tree.levels) {
      for (double& v : level) v += KeyedLaplace(key, counters[c++], scale);
    }
    o.h_trees.push_back(opts.consistency ? TreeConsistency(tree) : tree);
  }
  const std::vector<double> cumulative = data.CumulativeSums();
  for (size_t l = 0; l < k; ++l) {
    double v = cumulative[std::min((l + 1) * theta, n) - 1];
    if (l == 0 && theta > 1) {
      v = o.h_trees[0].levels[0][0];
    } else if (eps_s > 0.0) {
      v += KeyedLaplace(key, l, 1.0 / eps_s);
    }
    o.s_nodes.push_back(v);
  }
  if (opts.consistency) o.s_nodes = IsotonicRegression(o.s_nodes).value();
  return o;
}

TEST(OHLazyOracleTest, LazyReleaseEqualsMaterializedTree) {
  Random gen(20140612);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t n = static_cast<size_t>(gen.UniformInt(1, 300));
    auto dom = MakeLine(n);
    const int graph = static_cast<int>(gen.UniformInt(0, 2));
    Policy p = graph == 0   ? Policy::Line(dom).value()
               : graph == 1 ? Policy::FullDomain(dom).value()
                            : Policy::DistanceThreshold(
                                  dom, static_cast<double>(gen.UniformInt(
                                           1, static_cast<int64_t>(n))))
                                  .value();
    OrderedHierarchicalOptions opts;
    const size_t fanouts[] = {2, 3, 4, 5, 16};
    opts.fanout = fanouts[gen.UniformInt(0, 4)];
    if (gen.Bernoulli(0.5)) opts.eps_s_fraction = gen.Uniform(0.05, 0.95);
    opts.consistency = gen.Bernoulli(0.25);
    const double eps = gen.Uniform(0.1, 2.0);
    Histogram data = RandomData(n, static_cast<size_t>(gen.UniformInt(0, 3000)),
                                static_cast<uint64_t>(trial));
    const std::string at = "trial " + std::to_string(trial) + " n=" +
                           std::to_string(n) + " fanout=" +
                           std::to_string(opts.fanout);

    Random rng(static_cast<uint64_t>(trial) + 1);
    Random key_source = rng;  // the release takes its key as one draw
    const uint64_t key = key_source.engine()();
    auto m = OrderedHierarchicalMechanism::Release(data, p, eps, opts, rng);
    ASSERT_TRUE(m.ok()) << at << ": " << m.status().ToString();
    const Oracle o = Materialize(data, m->theta_steps(), eps, opts, key);
    for (size_t j = 0; j < n; ++j) {
      ASSERT_EQ(m->CumulativeCount(j).value(), o.CumulativeCount(j))
          << at << " theta=" << m->theta_steps() << " j=" << j;
    }
    const size_t a = static_cast<size_t>(gen.UniformInt(0, n - 1));
    const size_t b = static_cast<size_t>(gen.UniformInt(0, n - 1));
    const size_t lo = std::min(a, b), hi = std::max(a, b);
    const double want = o.CumulativeCount(hi) -
                        (lo > 0 ? o.CumulativeCount(lo - 1) : 0.0);
    EXPECT_EQ(m->RangeQuery(lo, hi).value(), want) << at;
  }
}

// Two nodes drawing the same counter would carry the same noise, and the
// release would leak their correlation. Enumerates every node of the
// layout — S nodes and each block's H subtree, ragged last blocks
// included — and checks that no counter repeats.
TEST(OHLazyOracleTest, NodeCountersAreDistinct) {
  for (size_t n : {1, 2, 7, 64, 100, 257}) {
    for (size_t theta : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                         size_t{16}, n}) {
      if (theta > n) continue;
      for (size_t fanout : {2, 3, 4, 16}) {
        const size_t k = (n + theta - 1) / theta;
        std::set<uint64_t> seen;
        size_t nodes = 0;
        for (size_t l = 0; l < k; ++l, ++nodes) seen.insert(l);
        if (theta > 1) {
          IntervalTree full = IntervalTree::Build(theta, fanout).value();
          size_t stride = 0;
          for (const auto& level : full.levels) stride += level.size();
          for (size_t b = 0; b < k; ++b) {
            const size_t leaves = std::min(theta, n - b * theta);
            IntervalTree tree = IntervalTree::Build(leaves, fanout).value();
            for (uint64_t c : BlockCounters(k, stride, b, tree)) {
              seen.insert(c);
              ++nodes;
            }
          }
        }
        EXPECT_EQ(seen.size(), nodes)
            << "n=" << n << " theta=" << theta << " fanout=" << fanout;
      }
    }
  }
}

}  // namespace
}  // namespace blowfish
