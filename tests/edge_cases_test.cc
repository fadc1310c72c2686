// Edge-case and failure-injection tests across modules: degenerate
// domains, exhausted budgets, scaled-metric edge enumeration, and
// constrained-sensitivity sweeps that tie Sec 8's bounds to the oracle
// over a parameter range rather than a single point.

#include <gtest/gtest.h>

#include <memory>

#include "core/neighbors.h"
#include "core/policy.h"
#include "core/policy_graph.h"
#include "core/sensitivity.h"
#include "mech/laplace.h"
#include "mech/ordered.h"
#include "util/random.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeLine(uint64_t size, double scale = 1.0) {
  return std::make_shared<const Domain>(Domain::Line(size, scale).value());
}

// --- Degenerate domains ---

TEST(EdgeCasesTest, SingleValueDomain) {
  auto dom = MakeLine(1);
  Policy p = Policy::FullDomain(dom).value();
  // No pairs to protect: sensitivity 0, exact release.
  EXPECT_DOUBLE_EQ(HistogramSensitivity(p.graph()), 0.0);
  Histogram data(1);
  data.Add(0, 7);
  Random rng(1);
  CompleteHistogramQuery q(1);
  auto out = LaplaceMechanism(q, p, data, 0.5, rng).value();
  EXPECT_DOUBLE_EQ(out[0], 7.0);
}

TEST(EdgeCasesTest, TwoValueDomainOrderedMechanism) {
  auto dom = MakeLine(2);
  Policy p = Policy::Line(dom).value();
  Histogram data(2);
  data.Add(0, 3);
  data.Add(1, 4);
  Random rng(2);
  auto out = OrderedMechanism(data, p, 1.0, rng).value();
  EXPECT_DOUBLE_EQ(out.sensitivity, 1.0);
  EXPECT_DOUBLE_EQ(out.inferred_cumulative.back(), 7.0);  // pinned total
}

TEST(EdgeCasesTest, EmptyDatasetReleases) {
  auto dom = MakeLine(8);
  Policy p = Policy::Line(dom).value();
  Histogram data(8);  // zero records
  Random rng(3);
  auto out = OrderedMechanism(data, p, 1.0, rng).value();
  // Everything clamps into [0, 0].
  for (double v : out.inferred_cumulative) EXPECT_DOUBLE_EQ(v, 0.0);
}

// --- Edge enumeration on scaled domains ---

TEST(EdgeCasesTest, ScaledThetaEdgeCount) {
  // Scale 2.5 per step; theta = 5.0 connects values up to 2 indices
  // apart: edges = (n-1) + (n-2).
  auto dom = MakeLine(10, 2.5);
  auto g = DistanceThresholdGraph::Create(dom, 5.0).value();
  size_t edges = 0;
  ASSERT_TRUE(g->ForEachEdge([&](ValueIndex, ValueIndex) { ++edges; },
                             1 << 20)
                  .ok());
  EXPECT_EQ(edges, 9u + 8u);
}

TEST(EdgeCasesTest, ThetaBelowResolutionHasNoEdges) {
  auto dom = MakeLine(10, 2.5);
  auto g = DistanceThresholdGraph::Create(dom, 2.0).value();
  size_t edges = 0;
  ASSERT_TRUE(
      g->ForEachEdge([&](ValueIndex, ValueIndex) { ++edges; }, 100).ok());
  EXPECT_EQ(edges, 0u);
  // Everything is releasable exactly under this (vacuous) policy.
  EXPECT_DOUBLE_EQ(HistogramSensitivity(*g), 0.0);
}

TEST(EdgeCasesTest, EdgeBudgetPropagatesFromSparsityCheck) {
  ConstraintSet cs;
  cs.Add(CountQuery("any", [](ValueIndex) { return true; }));
  FullGraph g(1000);
  // 499500 edges >> 10 budget.
  EXPECT_EQ(PolicyGraph::Build(cs, g, 10).status().code(),
            StatusCode::kResourceExhausted);
}

// --- Sec 8 sweep: policy-graph bound vs oracle across thresholds ---

class ConstraintSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ConstraintSweepTest, BoundDominatesAndIsTightForFullGraph) {
  const uint64_t threshold = GetParam();
  auto dom = MakeLine(4);
  ConstraintSet cs;
  cs.AddWithAnswer(CountQuery("low", [threshold](ValueIndex x) {
                     return x < threshold;
                   }),
                   1);
  auto graph = std::make_shared<FullGraph>(4);
  PolicyGraph pg = PolicyGraph::Build(cs, *graph, 1 << 20).value();
  double bound = pg.HistogramSensitivityBound().value();

  Policy p = Policy::Create(dom, graph, std::move(cs)).value();
  auto hist = [](const Dataset& d) {
    std::vector<double> h(d.domain().size(), 0.0);
    for (ValueIndex t : d.tuples()) h[t] += 1.0;
    return h;
  };
  double oracle = BruteForceSensitivity(p, 2, 10000, hist).value();
  EXPECT_LE(oracle, bound + 1e-9) << "threshold " << threshold;
  EXPECT_DOUBLE_EQ(bound, 4.0);
  // Thm 8.2 gives equality only under its witness condition: a paired
  // swap must touch four *distinct* buckets, which needs at least two
  // values on each side of the constraint. With |T| = 4, threshold 2
  // splits 2/2 (tight: oracle 4); thresholds 1 and 3 leave a singleton
  // side whose swap reuses a bucket (oracle 2) — the bound is then a
  // strict upper bound, exactly as the theorem's caveat says.
  EXPECT_DOUBLE_EQ(oracle, threshold == 2 ? 4.0 : 2.0);
}

INSTANTIATE_TEST_SUITE_P(Thresholds, ConstraintSweepTest,
                         ::testing::Values(1, 2, 3));

// --- Policy accessors on every factory ---

TEST(EdgeCasesTest, PolicyToStringForEveryFactory) {
  auto line = MakeLine(16);
  auto grid = std::make_shared<const Domain>(Domain::Grid(4, 2).value());
  for (const Policy& p :
       {Policy::FullDomain(line).value(), Policy::Line(line).value(),
        Policy::DistanceThreshold(line, 3.0).value(),
        Policy::Attribute(grid).value(),
        Policy::GridPartition(grid, {2, 2}).value()}) {
    EXPECT_FALSE(p.ToString().empty());
    EXPECT_EQ(p.graph().num_vertices(), p.domain().size());
  }
}

// --- Dataset restricted to a graph component still round-trips ---

TEST(EdgeCasesTest, NeighborsEmptyWhenGraphEdgeless) {
  auto dom = MakeLine(3);
  auto g = ExplicitGraph::Create(3, {}).value();
  Policy p = Policy::Create(dom, std::shared_ptr<const SecretGraph>(
                                     std::move(g)))
                 .value();
  NeighborhoodResult r = EnumerateNeighbors(p, 2, 1000).value();
  // No discriminative pairs -> no neighbours: every release is "private"
  // because nothing is secret.
  EXPECT_TRUE(r.neighbor_pairs.empty());
}

}  // namespace
}  // namespace blowfish
