// Constrained-policy parallel composition: randomized cross-checks of
// the per-cell sensitivity analysis against the brute-force Def 4.1
// oracle on tiny domains (mirroring randomized_crosscheck_test.cc), plus
// hand-built fixtures where the weighted Thm 8.2 bound is exact.
//
// Four properties are certified across many fixed seeds:
//  * soundness of the analytic per-cell sensitivity: it dominates the
//    exhaustive max over all (G, Q)-neighbour pairs, for cell-restricted
//    histograms and for value-weighted sums (mean);
//  * the soundness of constrained parallel groups as the engine serves
//    them: a neighbour step's compensating moves may land in any cell
//    (Def 4.1 condition 3(b)), so ReleaseEngine noises every member of
//    a constrained group at the UNION-cells sensitivity S_union (proof
//    in engine/release_engine.h); sum_g L1_g <= S is checked
//    exhaustively against the scale S the engine reports for each
//    member, together with the single max-epsilon charge;
//  * the group-privacy move bound used by wavelet_range: no neighbour
//    pair changes more than S(h, P) / 2 tuples — counting ALL changed
//    tuples, compensations included, since each is one replacement the
//    wavelet mechanism's epsilon is scaled down for;
//  * the SIGNED scalar chain bound: for output_dim() == 1 queries the
//    weighted analysis accumulates signed per-move deltas v(y) - v(x)
//    (maximized over both orientations) instead of magnitudes, so a
//    lift's delta cancels against its compensating lower's. The signed
//    bound still dominates the oracle, never exceeds the per-move
//    magnitude bound, and is exact on the hand-built line fixture
//    where the magnitude bound over-noises by 5/3.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "core/constraints.h"
#include "core/neighbors.h"
#include "core/policy.h"
#include "core/policy_graph.h"
#include "core/secret_graph.h"
#include "core/sensitivity.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kMaxEdges = 1 << 20;
constexpr size_t kMaxVertices = 16;

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

/// A partition graph from an explicit per-value cell assignment.
std::shared_ptr<const PartitionGraph> MakePartition(
    std::vector<uint64_t> cell_of) {
  const uint64_t n = cell_of.size();
  return std::make_shared<const PartitionGraph>(
      n, [cell_of](ValueIndex x) { return cell_of[x]; }, "partition|test");
}

/// Random cell assignment over `n` values into `num_cells` cells, each
/// cell non-empty.
std::vector<uint64_t> RandomCells(uint64_t n, uint64_t num_cells,
                                  Random& rng) {
  std::vector<uint64_t> cell_of(n);
  for (uint64_t x = 0; x < n; ++x) {
    cell_of[x] = x < num_cells
                     ? x
                     : static_cast<uint64_t>(rng.UniformInt(
                           0, static_cast<int64_t>(num_cells) - 1));
  }
  return cell_of;
}

/// 1-2 random interval count queries with answers pinned from a random
/// size-`n` dataset (so I_Q restricted to I_n is non-empty).
ConstraintSet RandomPinnedConstraints(
    const std::shared_ptr<const Domain>& domain, size_t n, Random& rng) {
  const int64_t size = static_cast<int64_t>(domain->size());
  std::vector<ValueIndex> tuples;
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(rng.UniformInt(0, size - 1)));
  }
  Dataset pin = Dataset::Create(domain, std::move(tuples)).value();
  ConstraintSet cs;
  const int num_queries = rng.Bernoulli(0.5) ? 1 : 2;
  for (int q = 0; q < num_queries; ++q) {
    uint64_t lo = static_cast<uint64_t>(rng.UniformInt(0, size - 1));
    uint64_t hi = static_cast<uint64_t>(rng.UniformInt(0, size - 1));
    if (lo > hi) std::swap(lo, hi);
    CountQuery query("interval" + std::to_string(q),
                     [lo, hi](ValueIndex x) { return x >= lo && x <= hi; });
    const uint64_t answer = query.Evaluate(pin);
    cs.AddWithAnswer(std::move(query), answer);
  }
  return cs;
}

/// Exhaustive S(h_cells, P): max L1 change of the cell-restricted
/// histogram over all neighbour pairs of size-n databases.
double OracleCellSensitivity(const Policy& policy,
                             const std::vector<uint64_t>& cell_of,
                             const std::set<uint64_t>& cells, size_t n) {
  auto f = [&cell_of, &cells](const Dataset& d) {
    std::vector<double> h;
    for (ValueIndex x = 0; x < d.domain().size(); ++x) {
      if (cells.count(cell_of[x]) == 0) continue;
      double count = 0.0;
      for (ValueIndex t : d.tuples()) {
        if (t == x) count += 1.0;
      }
      h.push_back(count);
    }
    return h;
  };
  return BruteForceSensitivity(policy, n, 100000, f).value();
}

class ConstrainedParallelTest : public ::testing::TestWithParam<int> {};

// Randomized: the analytic per-cell sensitivity dominates the
// exhaustive neighbour-pair maximum for every sampled cell subset.
TEST_P(ConstrainedParallelTest, PerCellSensitivityDominatesOracle) {
  Random rng(5000 + GetParam());
  const uint64_t n = 4 + GetParam() % 3;  // |T| in {4, 5, 6}
  const uint64_t num_cells = 2 + GetParam() % 2;
  auto domain = LineDomain(n);
  std::vector<uint64_t> cell_of = RandomCells(n, num_cells, rng);
  ConstraintSet cs = RandomPinnedConstraints(domain, 2, rng);
  Policy policy =
      Policy::Create(domain, MakePartition(cell_of), std::move(cs)).value();

  // Every non-empty cell subset.
  for (uint64_t mask = 1; mask < (uint64_t{1} << num_cells); ++mask) {
    std::vector<uint64_t> cells;
    for (uint64_t c = 0; c < num_cells; ++c) {
      if (mask & (uint64_t{1} << c)) cells.push_back(c);
    }
    auto analytic = ConstrainedCellHistogramSensitivity(
        policy, cells, kMaxEdges, kMaxEdges, kMaxVertices);
    if (!analytic.ok()) {
      // Non-sparse draws are refused, never served unsoundly.
      EXPECT_EQ(analytic.status().code(), StatusCode::kFailedPrecondition);
      continue;
    }
    const std::set<uint64_t> cell_set(cells.begin(), cells.end());
    const double oracle =
        OracleCellSensitivity(policy, cell_of, cell_set, 2);
    EXPECT_LE(oracle, *analytic + 1e-9)
        << "seed " << GetParam() << " mask " << mask;
  }
}

// Randomized: the mean / value-weighted-sum chain bound dominates the
// exhaustive oracle.
TEST_P(ConstrainedParallelTest, ValueWeightedChainBoundDominatesOracle) {
  Random rng(6000 + GetParam());
  const uint64_t n = 4 + GetParam() % 3;
  auto domain = LineDomain(n);
  std::vector<uint64_t> cell_of = RandomCells(n, 2, rng);
  ConstraintSet cs = RandomPinnedConstraints(domain, 2, rng);
  Policy policy =
      Policy::Create(domain, MakePartition(cell_of), std::move(cs)).value();

  ValueWeightedSumQuery query(
      [](ValueIndex x) { return static_cast<double>(x); });
  auto analytic = ConstrainedLinearQuerySensitivity(
      query, policy, kMaxEdges, kMaxEdges, kMaxVertices);
  if (!analytic.ok()) {
    EXPECT_EQ(analytic.status().code(), StatusCode::kFailedPrecondition);
    return;
  }
  auto sum = [](const Dataset& d) {
    double total = 0.0;
    for (ValueIndex t : d.tuples()) total += static_cast<double>(t);
    return std::vector<double>{total};
  };
  const double oracle = BruteForceSensitivity(policy, 2, 100000, sum).value();
  EXPECT_LE(oracle, *analytic + 1e-9) << "seed " << GetParam();
}

/// The old per-move-magnitude chain bound for a scalar value-weighted
/// query, recomputed through the public WeightedPolicyGraph API with
/// weight |v(y) - v(x)|: what ConstrainedLinearQuerySensitivity charged
/// before the signed refinement.
StatusOr<double> MagnitudeChainBound(const Policy& policy) {
  BLOWFISH_ASSIGN_OR_RETURN(
      WeightedPolicyGraph wpg,
      WeightedPolicyGraph::Build(
          policy.constraints(), policy.graph(), policy.domain().size(),
          [](ValueIndex x, ValueIndex y) {
            return std::fabs(static_cast<double>(y) -
                             static_cast<double>(x));
          },
          kMaxEdges));
  return wpg.NeighborStepBound(kMaxVertices);
}

// Randomized: the signed scalar refinement is a pure tightening — the
// bound ConstrainedLinearQuerySensitivity now returns for a scalar
// query never exceeds the per-move-magnitude bound it used to return
// (a signed delta sum is pointwise <= the magnitude sum, and edge
// pairs are a subset of all pairs, so the mandatory-edge penalty stays
// non-negative), while still dominating the exhaustive oracle
// (certified by ValueWeightedChainBoundDominatesOracle above on the
// same fixture distribution).
TEST_P(ConstrainedParallelTest, SignedScalarBoundTightensMagnitudeBound) {
  Random rng(6000 + GetParam());  // same draws as the oracle harness
  const uint64_t n = 4 + GetParam() % 3;
  auto domain = LineDomain(n);
  std::vector<uint64_t> cell_of = RandomCells(n, 2, rng);
  ConstraintSet cs = RandomPinnedConstraints(domain, 2, rng);
  Policy policy =
      Policy::Create(domain, MakePartition(cell_of), std::move(cs)).value();

  ValueWeightedSumQuery query(
      [](ValueIndex x) { return static_cast<double>(x); });
  auto signed_bound = ConstrainedLinearQuerySensitivity(
      query, policy, kMaxEdges, kMaxEdges, kMaxVertices);
  auto magnitude = MagnitudeChainBound(policy);
  ASSERT_EQ(signed_bound.ok(), magnitude.ok());
  if (!signed_bound.ok()) {
    EXPECT_EQ(signed_bound.status().code(),
              StatusCode::kFailedPrecondition);
    return;
  }
  EXPECT_LE(*signed_bound, *magnitude + 1e-9) << "seed " << GetParam();
}

// Randomized accounting harness: the scale ReleaseEngine applies to a
// constrained parallel group makes its single max-epsilon charge sound.
// The engine noises every member at the union-cells sensitivity S_union
// (proof in engine/release_engine.h); for every exhaustively enumerated
// neighbour pair, sum_g ||f_g(D1) - f_g(D2)||_1 <= S_union is checked
// against the sensitivity each served member reports, not a
// recomputation.
TEST_P(ConstrainedParallelTest, UnionSensitivityCoversGroupLoss) {
  Random rng(9000 + GetParam());
  const uint64_t n = 4 + GetParam() % 3;
  const uint64_t num_cells = 2 + GetParam() % 2;
  auto domain = LineDomain(n);
  std::vector<uint64_t> cell_of = RandomCells(n, num_cells, rng);
  ConstraintSet cs = RandomPinnedConstraints(domain, 2, rng);
  Policy policy =
      Policy::Create(domain, MakePartition(cell_of), std::move(cs)).value();

  std::vector<std::vector<uint64_t>> members(2);
  for (uint64_t c = 0; c < num_cells; ++c) {
    members[rng.Bernoulli(0.5) ? 1 : 0].push_back(c);
  }
  if (members[0].empty() || members[1].empty()) return;

  // Serve the grouping: member 0 at eps 0.5, member 1 at eps 0.25. The
  // served data is irrelevant to the scale, so any dataset will do.
  const double member_eps[] = {0.5, 0.25};
  std::vector<QueryRequest> batch;
  for (size_t m = 0; m < members.size(); ++m) {
    std::string cells;
    for (uint64_t c : members[m]) {
      cells += (cells.empty() ? "" : ",") + std::to_string(c);
    }
    batch.push_back(MakeQueryRequest("cell_histogram", member_eps[m],
                                     {{"cells", cells}, {"group", "g"}})
                        .value());
  }
  Dataset data = Dataset::Create(domain, {0, n - 1}).value();
  auto engine = ReleaseEngine::Create(policy, data, ReleaseEngineOptions{});
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const std::vector<QueryResponse> responses = (*engine)->ServeBatch(batch);
  ASSERT_EQ(responses.size(), 2u);
  if (!responses[0].status.ok()) {
    // Non-sparse draws are refused as a group, never served unsoundly,
    // and the refusal charges nothing.
    EXPECT_EQ(responses[0].status.code(), StatusCode::kFailedPrecondition)
        << responses[0].status.ToString();
    EXPECT_EQ(responses[1].status.code(), responses[0].status.code());
    EXPECT_DOUBLE_EQ((*engine)->accountant().Spent(""), 0.0);
    return;
  }
  ASSERT_TRUE(responses[1].status.ok()) << responses[1].status.ToString();
  const double scale = responses[0].sensitivity;
  EXPECT_DOUBLE_EQ(responses[1].sensitivity, scale);
  for (const QueryResponse& r : responses) EXPECT_TRUE(r.receipt.parallel);
  EXPECT_DOUBLE_EQ((*engine)->accountant().Spent(""),
                   scale > 0.0 ? member_eps[0] : 0.0);

  auto neighborhood = EnumerateNeighbors(policy, 2, 100000).value();
  for (const auto& [i, j] : neighborhood.neighbor_pairs) {
    const Dataset& d1 = neighborhood.universe[i];
    const Dataset& d2 = neighborhood.universe[j];
    double total_l1 = 0.0;
    for (const auto& m : members) {
      const std::set<uint64_t> cell_set(m.begin(), m.end());
      auto restricted = [&](const Dataset& d) {
        std::vector<double> h;
        for (ValueIndex x = 0; x < d.domain().size(); ++x) {
          if (cell_set.count(cell_of[x]) == 0) continue;
          double count = 0.0;
          for (ValueIndex t : d.tuples()) {
            if (t == x) count += 1.0;
          }
          h.push_back(count);
        }
        return h;
      };
      std::vector<double> h1 = restricted(d1);
      std::vector<double> h2 = restricted(d2);
      for (size_t r = 0; r < h1.size(); ++r) {
        total_l1 += std::fabs(h1[r] - h2[r]);
      }
    }
    EXPECT_LE(total_l1, scale + 1e-9) << "seed " << GetParam();
  }
}

// Randomized: the wavelet_range group-privacy calibration is sound — no
// neighbour pair changes more than S(h, P) / 2 tuples, counting every
// changed tuple (compensating non-edge moves included: each one is a
// replacement the wavelet mechanism's internal epsilon must absorb).
TEST_P(ConstrainedParallelTest, HistogramBoundDominatesMoveCount) {
  Random rng(8000 + GetParam());
  const uint64_t n = 4 + GetParam() % 2;
  auto domain = LineDomain(n);
  std::vector<uint64_t> cell_of = RandomCells(n, 2, rng);
  ConstraintSet cs = RandomPinnedConstraints(domain, 3, rng);
  Policy policy =
      Policy::Create(domain, MakePartition(cell_of), std::move(cs)).value();

  CompleteHistogramQuery h(n);
  auto bound = ConstrainedLinearQuerySensitivity(h, policy, kMaxEdges, kMaxEdges,
                                                 kMaxVertices);
  if (!bound.ok()) {
    EXPECT_EQ(bound.status().code(), StatusCode::kFailedPrecondition);
    return;
  }
  auto neighborhood = EnumerateNeighbors(policy, 3, 100000).value();
  for (const auto& [i, j] : neighborhood.neighbor_pairs) {
    const Dataset& d1 = neighborhood.universe[i];
    const Dataset& d2 = neighborhood.universe[j];
    size_t moves = 0;
    for (size_t id = 0; id < d1.size(); ++id) {
      if (d1.tuple(id) != d2.tuple(id)) ++moves;
    }
    EXPECT_LE(static_cast<double>(moves), *bound / 2.0 + 1e-9)
        << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstrainedParallelTest,
                         ::testing::Range(0, 25));

// ---------------------------------------------------------------------------
// Hand-built fixtures where the weighted bound is exact.

/// Line(6), cells {0,1,2,3} and {4,5}, one pinned count of {1,2}:
/// critical only inside cell 0, so cell 1 stays a free cell.
Policy CoupledCellFixture(const std::shared_ptr<const Domain>& domain) {
  std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1};
  ConstraintSet cs;
  cs.AddWithAnswer(
      CountQuery("mid", [](ValueIndex x) { return x == 1 || x == 2; }), 1);
  return Policy::Create(domain, MakePartition(cell_of), std::move(cs))
      .value();
}

TEST(ConstrainedCellFixtureTest, AnalyticMatchesOracleExactly) {
  auto domain = LineDomain(6);
  Policy policy = CoupledCellFixture(domain);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1};

  struct Case {
    std::vector<uint64_t> cells;
    double analytic;
    double oracle;
  };
  // Cell 0 analytic: a lift (e.g. 0 -> 1) plus a compensating lower,
  // each up to weight 2: 4. The oracle realizes only 3: the pure
  // two-G-edge chain {0 -> 1, 2 -> 3} is disqualified by Def 4.1
  // condition 3(a) — compensating CROSS-CELL (2 -> 4 is not a G^P
  // edge) yields I_Q membership with a strictly smaller discriminative
  // set — and the surviving steps pair a weight-2 in-cell move with a
  // weight-1 cross-cell compensation. The bound stays sound (4 >= 3);
  // tightening it would require modeling T-minimality, which is what
  // the brute-force oracle is for. Cell 1: one free in-cell move (4),
  // analytic = oracle = 2: chains reach it only through weight-1
  // cross-cell endpoints. Both cells: every compensation endpoint is
  // included, so analytic = oracle = 4.
  for (const Case& c : {Case{{0}, 4.0, 3.0}, Case{{1}, 2.0, 2.0},
                        Case{{0, 1}, 4.0, 4.0}}) {
    auto analytic = ConstrainedCellHistogramSensitivity(
        policy, c.cells, kMaxEdges, kMaxEdges, kMaxVertices);
    ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();
    EXPECT_DOUBLE_EQ(*analytic, c.analytic);
    const std::set<uint64_t> cell_set(c.cells.begin(), c.cells.end());
    const double oracle = OracleCellSensitivity(policy, cell_of, cell_set, 2);
    EXPECT_DOUBLE_EQ(oracle, c.oracle);
    EXPECT_LE(oracle, *analytic);
  }
}

TEST(SignedScalarFixtureTest, SignedBoundExactWhereMagnitudeOverNoises) {
  // Line(5) under the LINE secret graph, v(x) = x, one pinned count of
  // {2, 3, 4}. A neighbour step crossing the constraint pairs a lift
  // with a compensating lower, at least one of them a G edge:
  //  * magnitude bound: edge lift 1 -> 2 (weight 1) + any lower 4 -> 0
  //    (weight 4) = 5 — equivalently any-lift 4 minus the lift penalty
  //    (any 4 - edge 1 = 3) plus any-lower 4;
  //  * signed bound: the lift's positive delta cancels against the
  //    lower's negative one. s = +1: any lift 0 -> 4 (+4) + best lower
  //    2 -> 1 (-1), edge-lower penalty 0, = 3; s = -1 is symmetric.
  // The oracle realizes exactly 3 ({1, 4} vs {2, 0}: 1 -> 2 is the
  // edge, 4 -> 0 the compensation, net |2 + 0 - 1 - 4| = 3), so the
  // signed bound is EXACT here while the magnitude bound over-noises
  // by 5/3.
  auto domain = LineDomain(5);
  ConstraintSet cs;
  cs.AddWithAnswer(
      CountQuery("mid", [](ValueIndex x) { return x >= 2 && x <= 4; }), 1);
  Policy policy =
      Policy::Create(domain, std::make_shared<LineGraph>(5), std::move(cs))
          .value();

  ValueWeightedSumQuery query(
      [](ValueIndex x) { return static_cast<double>(x); });
  auto signed_bound = ConstrainedLinearQuerySensitivity(
      query, policy, kMaxEdges, kMaxEdges, kMaxVertices);
  ASSERT_TRUE(signed_bound.ok()) << signed_bound.status().ToString();
  EXPECT_DOUBLE_EQ(*signed_bound, 3.0);

  auto magnitude = MagnitudeChainBound(policy);
  ASSERT_TRUE(magnitude.ok()) << magnitude.status().ToString();
  EXPECT_DOUBLE_EQ(*magnitude, 5.0);

  auto sum = [](const Dataset& d) {
    double total = 0.0;
    for (ValueIndex t : d.tuples()) total += static_cast<double>(t);
    return std::vector<double>{total};
  };
  const double oracle =
      BruteForceSensitivity(policy, 2, 100000, sum).value();
  EXPECT_DOUBLE_EQ(oracle, 3.0);
}

}  // namespace
}  // namespace blowfish
