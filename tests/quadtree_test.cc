#include "mech/quadtree.h"

#include <gtest/gtest.h>

#include <memory>

#include "util/stats.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeGrid(uint64_t m) {
  return std::make_shared<const Domain>(Domain::Grid(m, 2).value());
}

Dataset UniformPoints(std::shared_ptr<const Domain> dom, size_t n,
                      uint64_t seed) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  uint64_t m = dom->attribute(0).cardinality;
  for (size_t i = 0; i < n; ++i) {
    uint64_t x = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    uint64_t y = static_cast<uint64_t>(
        rng.UniformInt(0, static_cast<int64_t>(m) - 1));
    tuples.push_back(dom->Encode({x, y}));
  }
  return Dataset::Create(dom, tuples).value();
}

TEST(QuadtreeTest, Validation) {
  auto dom = MakeGrid(16);
  Dataset data = UniformPoints(dom, 100, 1);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(2);
  QuadtreeOptions opts;
  EXPECT_FALSE(QuadtreeMechanism::Release(data, p, 0.0, opts, rng).ok());
  opts.depth = 2;  // 4x4 grid cannot resolve 16x16 domain
  EXPECT_FALSE(QuadtreeMechanism::Release(data, p, 1.0, opts, rng).ok());
  opts.depth = 0;
  EXPECT_TRUE(QuadtreeMechanism::Release(data, p, 1.0, opts, rng).ok());
  // 1-D domain rejected.
  auto line = std::make_shared<const Domain>(Domain::Line(16).value());
  Dataset line_data = Dataset::Create(line, {0}).value();
  Policy line_p = Policy::FullDomain(line).value();
  EXPECT_FALSE(
      QuadtreeMechanism::Release(line_data, line_p, 1.0, opts, rng).ok());
}

TEST(QuadtreeTest, DepthChosenFromDomain) {
  auto dom = MakeGrid(20);  // pad to 32 -> depth 5
  Dataset data = UniformPoints(dom, 10, 3);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(4);
  QuadtreeOptions opts;
  auto m = QuadtreeMechanism::Release(data, p, 1.0, opts, rng).value();
  EXPECT_EQ(m.depth(), 5u);
  EXPECT_EQ(m.exact_levels(), 0u);  // full graph: only the root is exact
}

TEST(QuadtreeTest, RangeCountBounds) {
  auto dom = MakeGrid(16);
  Dataset data = UniformPoints(dom, 100, 5);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(6);
  QuadtreeOptions opts;
  auto m = QuadtreeMechanism::Release(data, p, 1.0, opts, rng).value();
  EXPECT_FALSE(m.RangeCount(Rectangle{{0}, {1}}).ok());          // arity
  EXPECT_FALSE(m.RangeCount(Rectangle{{5, 0}, {4, 1}}).ok());    // lo > hi
  EXPECT_FALSE(m.RangeCount(Rectangle{{0, 0}, {16, 1}}).ok());   // outside
  EXPECT_TRUE(m.RangeCount(Rectangle{{0, 0}, {15, 15}}).ok());
}

TEST(QuadtreeTest, RangeCountsUnbiased) {
  auto dom = MakeGrid(32);
  Dataset data = UniformPoints(dom, 3000, 7);
  Policy p = Policy::FullDomain(dom).value();
  Rectangle q{{3, 5}, {20, 27}};
  // True count.
  double truth = 0.0;
  for (ValueIndex t : data.tuples()) {
    if (q.Contains(*dom, t)) truth += 1.0;
  }
  Random rng(8);
  QuadtreeOptions opts;
  std::vector<double> errors;
  const int reps = 500;
  for (int rep = 0; rep < reps; ++rep) {
    auto m = QuadtreeMechanism::Release(data, p, 1.0, opts, rng).value();
    errors.push_back(m.RangeCount(q).value() - truth);
  }
  // Zero-mean within 4 standard errors.
  double stderr_bound =
      4.0 * std::sqrt(Variance(errors) / static_cast<double>(reps));
  EXPECT_NEAR(Mean(errors), 0.0, stderr_bound);
}

TEST(QuadtreeTest, FullCoverageQueryIsRootExact) {
  auto dom = MakeGrid(16);
  Dataset data = UniformPoints(dom, 500, 9);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(10);
  QuadtreeOptions opts;
  auto m = QuadtreeMechanism::Release(data, p, 0.1, opts, rng).value();
  // The whole padded grid is the root node = public total: exact even at
  // tiny eps.
  double whole = m.RangeCount(Rectangle{{0, 0}, {15, 15}}).value();
  EXPECT_DOUBLE_EQ(whole, 500.0);
}

// --- Lazy keyed noise ---

/// Empirical variance of one rectangle's answer over fresh releases.
double AnswerVariance(const Dataset& data, const Policy& p, double eps,
                      const Rectangle& q, int reps, uint64_t seed) {
  Random rng(seed);
  QuadtreeOptions opts;
  std::vector<double> answers;
  for (int rep = 0; rep < reps; ++rep) {
    auto m = QuadtreeMechanism::Release(data, p, eps, opts, rng).value();
    answers.push_back(m.RangeCount(q).value());
  }
  return Variance(answers);
}

// Noise drawn on read still gives each cover node its own independent
// Laplace(b) draw: a rectangle whose canonical cover is k nodes has
// variance k * 2 b^2. On an 8 x 8 full-domain tree (d = 3, all three
// levels below the root noised) b = 2 * 3 / eps.
TEST(QuadtreeTest, AnswerVarianceIsCoverSizeTimesNodeVariance) {
  auto dom = MakeGrid(8);
  Dataset data = UniformPoints(dom, 200, 21);
  Policy p = Policy::FullDomain(dom).value();
  const double eps = 1.0;
  const double b = 2.0 * 3.0 / eps;
  const int reps = 20000;
  // Laplace has excess kurtosis 3, so the sample variance's relative
  // standard error is about sqrt(5 / reps) = 1.6%; allow 5 of them.
  // One level-1 node: k = 1.
  EXPECT_NEAR(AnswerVariance(data, p, eps, Rectangle{{0, 0}, {3, 3}}, reps,
                             22) / (2.0 * b * b),
              1.0, 0.08);
  // Two level-2 siblings (the top half of level-1 node (0, 0)): k = 2.
  EXPECT_NEAR(AnswerVariance(data, p, eps, Rectangle{{0, 0}, {1, 3}}, reps,
                             23) / (2.0 * b * b),
              2.0, 0.16);
}

// One release is one synopsis: every read of a node sees the same draw.
TEST(QuadtreeTest, ReadsOfOneReleaseAreConsistent) {
  auto dom = MakeGrid(8);
  Dataset data = UniformPoints(dom, 300, 24);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(25);
  auto m = QuadtreeMechanism::Release(data, p, 0.5, QuadtreeOptions{}, rng)
               .value();
  const Rectangle q{{1, 2}, {6, 5}};
  const double first = m.RangeCount(q).value();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(m.RangeCount(q).value(), first);
  // Level-1 nodes (0, 0) and (1, 0) are exactly the cover of their
  // union, so the union reads the same two draws the halves do.
  const double left = m.RangeCount(Rectangle{{0, 0}, {3, 3}}).value();
  const double right = m.RangeCount(Rectangle{{4, 0}, {7, 3}}).value();
  EXPECT_EQ(m.RangeCount(Rectangle{{0, 0}, {7, 3}}).value(), left + right);
}

// Each release takes its own key from the caller's generator.
TEST(QuadtreeTest, SuccessiveReleasesDiffer) {
  auto dom = MakeGrid(8);
  Dataset data = UniformPoints(dom, 300, 26);
  Policy p = Policy::FullDomain(dom).value();
  Random rng(27);
  const Rectangle q{{0, 0}, {3, 3}};
  auto a = QuadtreeMechanism::Release(data, p, 0.5, QuadtreeOptions{}, rng)
               .value();
  auto b = QuadtreeMechanism::Release(data, p, 0.5, QuadtreeOptions{}, rng)
               .value();
  EXPECT_NE(a.RangeCount(q).value(), b.RangeCount(q).value());
  // The same seed replays the same pair of releases.
  Random replay(27);
  auto a2 =
      QuadtreeMechanism::Release(data, p, 0.5, QuadtreeOptions{}, replay)
          .value();
  EXPECT_EQ(a2.RangeCount(q).value(), a.RangeCount(q).value());
}

// --- Partition-policy exact levels ---

TEST(QuadtreeTest, ExactLevelsForAlignedPartition) {
  auto dom = MakeGrid(16);  // depth 4
  // 4x4 partition cells of 4x4 grid points: nodes of side >= 4 contain
  // whole cells -> levels 0..2 exact (sides 16, 8, 4).
  Policy p = Policy::GridPartition(dom, {4, 4}).value();
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(p, 4), 2u);
  // Finest partition (every value its own cell): all levels exact.
  Policy finest = Policy::GridPartition(dom, {16, 16}).value();
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(finest, 4), 4u);
  // Non-power-of-two blocks (ceil(16/3) = 6): no alignment.
  Policy odd = Policy::GridPartition(dom, {3, 3}).value();
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(odd, 4), 0u);
  // cells = 5 gives blocks of ceil(16/5) = 4 -> aligned like 4x4 cells.
  Policy five = Policy::GridPartition(dom, {5, 5}).value();
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(five, 4), 2u);
  // Full graph: nothing exact.
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(
                Policy::FullDomain(dom).value(), 4),
            0u);
}

TEST(QuadtreeTest, AlignedCoarseQueriesAreExact) {
  auto dom = MakeGrid(16);
  Dataset data = UniformPoints(dom, 2000, 11);
  Policy p = Policy::GridPartition(dom, {4, 4}).value();
  Random rng(12);
  QuadtreeOptions opts;
  auto m = QuadtreeMechanism::Release(data, p, 0.05, opts, rng).value();
  EXPECT_EQ(m.exact_levels(), 2u);
  // A query that is a union of level-2 nodes (side 4) is answered from
  // exact counts even at eps = 0.05.
  Rectangle aligned{{0, 4}, {7, 11}};
  double truth = 0.0;
  for (ValueIndex t : data.tuples()) {
    if (aligned.Contains(*dom, t)) truth += 1.0;
  }
  EXPECT_DOUBLE_EQ(m.RangeCount(aligned).value(), truth);
}

TEST(QuadtreeTest, FinestPartitionIsFullyNoiseless) {
  auto dom = MakeGrid(16);
  Dataset data = UniformPoints(dom, 800, 13);
  Policy finest = Policy::GridPartition(dom, {16, 16}).value();
  Random rng(14);
  QuadtreeOptions opts;
  auto m =
      QuadtreeMechanism::Release(data, finest, 0.01, opts, rng).value();
  Rectangle q{{2, 3}, {9, 13}};
  double truth = 0.0;
  for (ValueIndex t : data.tuples()) {
    if (q.Contains(*dom, t)) truth += 1.0;
  }
  EXPECT_DOUBLE_EQ(m.RangeCount(q).value(), truth);
}

// Partition alignment reduces error for misaligned queries too (fewer
// noised levels on the decomposition path).
TEST(QuadtreeTest, PartitionPolicyReducesError) {
  auto dom = MakeGrid(64);
  Dataset data = UniformPoints(dom, 5000, 15);
  Rectangle q{{5, 9}, {50, 47}};
  double truth = 0.0;
  for (ValueIndex t : data.tuples()) {
    if (q.Contains(*dom, t)) truth += 1.0;
  }
  auto mse_for = [&](const Policy& p, uint64_t seed) {
    Random rng(seed);
    QuadtreeOptions opts;
    double mse = 0.0;
    const int reps = 150;
    for (int rep = 0; rep < reps; ++rep) {
      auto m = QuadtreeMechanism::Release(data, p, 0.5, opts, rng).value();
      double e = m.RangeCount(q).value() - truth;
      mse += e * e;
    }
    return mse / reps;
  };
  double mse_full = mse_for(Policy::FullDomain(dom).value(), 1);
  double mse_part =
      mse_for(Policy::GridPartition(dom, {8, 8}).value(), 2);
  EXPECT_LT(mse_part, mse_full);
}

// Privacy accounting: sum over noised nodes of |delta|/scale <= eps for
// any within-policy move, checked exhaustively on a small grid.
TEST(QuadtreeTest, BudgetCoversPartitionMoves) {
  auto dom = MakeGrid(8);  // depth 3
  Policy p = Policy::GridPartition(dom, {2, 2}).value();  // blocks 4x4
  const size_t depth = 3;
  const size_t exact = QuadtreeMechanism::ExactLevelsForPolicy(p, depth);
  ASSERT_EQ(exact, 1u);  // sides 8 (l=0), 4 (l=1) contain 4x4 blocks
  const double eps = 0.7;
  const size_t noised = depth - exact;
  const double per_node_eps = eps / (2.0 * noised);

  auto node_counts = [&](const std::vector<ValueIndex>& tuples) {
    std::vector<std::vector<double>> levels(depth + 1);
    for (size_t l = 0; l <= depth; ++l) {
      size_t w = size_t{1} << l;
      levels[l].assign(w * w, 0.0);
    }
    for (ValueIndex t : tuples) {
      uint64_t x = dom->Coordinate(t, 0);
      uint64_t y = dom->Coordinate(t, 1);
      for (size_t l = 0; l <= depth; ++l) {
        size_t shift = depth - l;
        size_t w = size_t{1} << l;
        levels[l][(x >> shift) * w + (y >> shift)] += 1.0;
      }
    }
    return levels;
  };
  double worst = 0.0;
  for (ValueIndex x = 0; x < dom->size(); ++x) {
    for (ValueIndex y = 0; y < dom->size(); ++y) {
      if (!p.graph().Adjacent(x, y)) continue;
      auto l1 = node_counts({x});
      auto l2 = node_counts({y});
      double spend = 0.0;
      for (size_t l = exact + 1; l <= depth; ++l) {
        for (size_t i = 0; i < l1[l].size(); ++i) {
          spend += std::fabs(l1[l][i] - l2[l][i]) * per_node_eps;
        }
      }
      worst = std::max(worst, spend);
      // Exact levels must genuinely be invariant under policy moves.
      for (size_t l = 0; l <= exact; ++l) {
        for (size_t i = 0; i < l1[l].size(); ++i) {
          ASSERT_DOUBLE_EQ(l1[l][i], l2[l][i]);
        }
      }
    }
  }
  EXPECT_LE(worst, eps + 1e-9);
}

}  // namespace
}  // namespace blowfish
