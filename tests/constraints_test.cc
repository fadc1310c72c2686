#include "core/constraints.h"

#include <gtest/gtest.h>

#include <memory>

#include "core/policy_graph.h"
#include "core/secret_graph.h"

namespace blowfish {
namespace {

std::shared_ptr<const Domain> MakeDomain223() {
  // The 2 x 2 x 3 domain of Example 8.1.
  return std::make_shared<const Domain>(
      Domain::Create({Attribute{"A1", 2, 1.0}, Attribute{"A2", 2, 1.0},
                      Attribute{"A3", 3, 1.0}})
          .value());
}

TEST(CountQueryTest, EvaluateAndMatch) {
  auto dom = std::make_shared<const Domain>(Domain::Line(10).value());
  CountQuery q("low", [](ValueIndex x) { return x < 5; });
  EXPECT_TRUE(q.Matches(3));
  EXPECT_FALSE(q.Matches(7));
  Dataset d = Dataset::Create(dom, {1, 2, 7, 9, 4}).value();
  EXPECT_EQ(q.Evaluate(d), 3u);
}

TEST(CountQueryTest, LiftLower) {
  CountQuery q("low", [](ValueIndex x) { return x < 5; });
  // 7 -> 3 enters the predicate: lift.
  EXPECT_TRUE(q.LiftedBy(7, 3));
  EXPECT_FALSE(q.LoweredBy(7, 3));
  // 3 -> 7 leaves the predicate: lower.
  EXPECT_TRUE(q.LoweredBy(3, 7));
  EXPECT_FALSE(q.LiftedBy(3, 7));
  // No boundary crossed.
  EXPECT_FALSE(q.LiftedBy(1, 2));
  EXPECT_FALSE(q.LoweredBy(8, 9));
}

TEST(RectangleTest, ContainsAndPoint) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(10, 2).value());
  Rectangle r{{2, 3}, {4, 5}};
  EXPECT_TRUE(r.Contains(*dom, dom->Encode({2, 3})));
  EXPECT_TRUE(r.Contains(*dom, dom->Encode({4, 5})));
  EXPECT_FALSE(r.Contains(*dom, dom->Encode({5, 4})));
  EXPECT_FALSE(r.IsPoint());
  Rectangle p{{1, 1}, {1, 1}};
  EXPECT_TRUE(p.IsPoint());
}

TEST(RectangleTest, MinDistance) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(20, 2).value());
  Rectangle a{{0, 0}, {2, 2}};
  Rectangle b{{5, 0}, {6, 2}};   // gap of 3 on axis 0
  Rectangle c{{5, 7}, {6, 8}};   // gaps of 3 and 5
  EXPECT_DOUBLE_EQ(a.MinDistance(*dom, b), 3.0);
  EXPECT_DOUBLE_EQ(a.MinDistance(*dom, c), 8.0);
  EXPECT_DOUBLE_EQ(b.MinDistance(*dom, a), 3.0);  // symmetric
  Rectangle overlap{{2, 2}, {4, 4}};
  EXPECT_DOUBLE_EQ(a.MinDistance(*dom, overlap), 0.0);
  EXPECT_TRUE(a.Intersects(overlap));
  EXPECT_FALSE(a.Intersects(b));
}

TEST(MarginalTest, SizeAndDisjoint) {
  auto dom = MakeDomain223();
  Marginal c12{{0, 1}};
  Marginal c3{{2}};
  EXPECT_EQ(c12.Size(*dom), 4u);
  EXPECT_EQ(c3.Size(*dom), 3u);
  EXPECT_TRUE(c12.DisjointFrom(c3));
  Marginal c13{{0, 2}};
  EXPECT_FALSE(c12.DisjointFrom(c13));
}

TEST(ConstraintSetTest, SatisfiedByPinnedAnswers) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  Dataset d = Dataset::Create(dom, {0, 1, 5}).value();
  ConstraintSet q;
  q.AddWithAnswer(CountQuery("low", [](ValueIndex x) { return x < 3; }), 2);
  EXPECT_TRUE(q.SatisfiedBy(d));
  q.AddWithAnswer(CountQuery("high", [](ValueIndex x) { return x >= 3; }), 2);
  EXPECT_FALSE(q.SatisfiedBy(d));  // only one high tuple
}

TEST(ConstraintSetTest, UnpinnedQueriesAreVacuous) {
  auto dom = std::make_shared<const Domain>(Domain::Line(6).value());
  Dataset d = Dataset::Create(dom, {0}).value();
  ConstraintSet q;
  q.Add(CountQuery("any", [](ValueIndex) { return true; }));
  EXPECT_TRUE(q.SatisfiedBy(d));
}

TEST(ConstraintSetTest, MarginalExpansion) {
  auto dom = MakeDomain223();
  ConstraintSet q;
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{0, 1}}).ok());
  EXPECT_EQ(q.size(), 4u);  // 2 x 2 cells
  // Each domain value matches exactly one cell query.
  for (ValueIndex x = 0; x < dom->size(); ++x) {
    size_t matches = 0;
    for (size_t i = 0; i < q.size(); ++i) {
      if (q.query(i).Matches(x)) ++matches;
    }
    EXPECT_EQ(matches, 1u);
  }
}

TEST(ConstraintSetTest, MarginalWithAnswers) {
  auto dom = MakeDomain223();
  Dataset d =
      Dataset::Create(dom, {dom->Encode({0, 0, 0}), dom->Encode({0, 0, 1}),
                            dom->Encode({1, 1, 2})})
          .value();
  ConstraintSet q;
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{0, 1}}, &d).ok());
  EXPECT_TRUE(q.SatisfiedBy(d));
  // Moving a tuple across marginal cells violates the constraint.
  Dataset moved = d.WithTuple(0, dom->Encode({1, 0, 0})).value();
  EXPECT_FALSE(q.SatisfiedBy(moved));
  // Moving within a cell (changing only A3) keeps it satisfied.
  Dataset within = d.WithTuple(0, dom->Encode({0, 0, 2})).value();
  EXPECT_TRUE(q.SatisfiedBy(within));
}

TEST(ConstraintSetTest, MarginalValidation) {
  auto dom = MakeDomain223();
  ConstraintSet q;
  EXPECT_FALSE(q.AddMarginal(dom, Marginal{{}}).ok());
  EXPECT_FALSE(q.AddMarginal(dom, Marginal{{7}}).ok());
}

TEST(ConstraintSetTest, RectangleValidation) {
  auto dom = std::make_shared<const Domain>(Domain::Grid(8, 2).value());
  ConstraintSet q;
  EXPECT_FALSE(q.AddRectangles(dom, {Rectangle{{0}, {1}}}).ok());  // arity
  EXPECT_FALSE(
      q.AddRectangles(dom, {Rectangle{{3, 0}, {2, 1}}}).ok());  // lo > hi
  EXPECT_FALSE(
      q.AddRectangles(dom, {Rectangle{{0, 0}, {8, 1}}}).ok());  // past edge
  EXPECT_TRUE(q.AddRectangles(dom, {Rectangle{{0, 0}, {2, 2}}}).ok());
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.rectangles().size(), 1u);
}

// Def 8.2 sparsity is checked where the policy graph is built:
// PolicyGraph::Build succeeds on sparse constraints and refuses
// non-sparse ones with FailedPrecondition.

// Example 8.1: the 2x2x3 domain with the [A1,A2] marginal queries is
// sparse w.r.t. the full-domain graph.
TEST(ConstraintSetTest, Example81MarginalSparseUnderFullGraph) {
  auto dom = MakeDomain223();
  ConstraintSet q;
  ASSERT_TRUE(q.AddMarginal(dom, Marginal{{0, 1}}).ok());
  FullGraph g(dom->size());
  EXPECT_TRUE(PolicyGraph::Build(q, g, uint64_t{1} << 20).ok());
}

// Two overlapping predicates break sparsity: one move can lift both.
TEST(ConstraintSetTest, OverlappingQueriesNotSparse) {
  ConstraintSet q;
  q.Add(CountQuery("ge5", [](ValueIndex x) { return x >= 5; }));
  q.Add(CountQuery("ge7", [](ValueIndex x) { return x >= 7; }));
  FullGraph g(10);
  // Moving 0 -> 9 lifts both queries.
  EXPECT_EQ(PolicyGraph::Build(q, g, uint64_t{1} << 20).status().code(),
            StatusCode::kFailedPrecondition);
}

// The same overlapping queries *are* sparse w.r.t. a line graph, where
// adjacent values can cross at most one of the two thresholds.
TEST(ConstraintSetTest, SparsityDependsOnGraph) {
  ConstraintSet q;
  q.Add(CountQuery("ge5", [](ValueIndex x) { return x >= 5; }));
  q.Add(CountQuery("ge7", [](ValueIndex x) { return x >= 7; }));
  LineGraph g(10);
  EXPECT_TRUE(PolicyGraph::Build(q, g, uint64_t{1} << 20).ok());
}

TEST(ConstraintSetTest, LiftedLoweredLists) {
  ConstraintSet q;
  q.Add(CountQuery("low", [](ValueIndex x) { return x < 5; }));
  q.Add(CountQuery("high", [](ValueIndex x) { return x >= 5; }));
  // 2 -> 8: lowers "low", lifts "high".
  std::vector<size_t> lifted = q.Lifted(2, 8);
  std::vector<size_t> lowered = q.Lowered(2, 8);
  ASSERT_EQ(lifted.size(), 1u);
  ASSERT_EQ(lowered.size(), 1u);
  EXPECT_EQ(lifted[0], 1u);
  EXPECT_EQ(lowered[0], 0u);
}

}  // namespace
}  // namespace blowfish
