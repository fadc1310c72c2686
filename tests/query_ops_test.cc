#include "engine/ops/query_op.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "mech/wavelet.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 97;

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed = 7) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

std::unique_ptr<ReleaseEngine> MakeEngine(const Policy& policy,
                                          const Dataset& data,
                                          double budget = 100.0) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = budget;
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(QueryOpRegistryTest, AllBuiltinKindsRegistered) {
  auto& registry = QueryOpRegistry::Global();
  for (const char* kind :
       {"histogram", "cell_histogram", "range", "cdf", "quantiles",
        "kmeans", "mean", "wavelet_range"}) {
    EXPECT_TRUE(registry.Has(kind)) << kind;
  }
  EXPECT_FALSE(registry.Has("frobnicate"));
  EXPECT_EQ(registry.Create("frobnicate").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(QueryOpRegistryTest, EveryRegisteredOpParsesItsOwnKindNameLine) {
  // Round-trip: for every registered kind, a batch-file line built from
  // the op's own KindName() and ExampleArgs() parses back to that op.
  // The registry is the single source of truth for the name <-> op map —
  // there is no separate kind table that could drift.
  auto& registry = QueryOpRegistry::Global();
  const std::vector<std::string> kinds = registry.KnownKinds();
  ASSERT_GE(kinds.size(), 8u);
  for (const std::string& kind : kinds) {
    auto op = registry.Create(kind);
    ASSERT_TRUE(op.ok()) << kind;
    EXPECT_EQ((*op)->KindName(), kind);
    std::string line = kind + " eps=0.1";
    const std::string example = (*op)->ExampleArgs();
    if (!example.empty()) line += " " + example;
    auto requests = ParseBatchRequests(line + "\n");
    ASSERT_TRUE(requests.ok())
        << kind << ": " << requests.status().ToString();
    ASSERT_EQ(requests->size(), 1u);
    EXPECT_EQ(QueryKindName((*requests)[0]), kind);
    EXPECT_DOUBLE_EQ((*requests)[0].epsilon, 0.1);
  }
}

TEST(QueryOpRegistryTest, ParsedAndConstructedRequestsAgreeBitForBit) {
  // The batch-file path and the MakeQueryRequest path must produce the
  // same op state: identical engines serving the two batches draw
  // identical noise and answers.
  auto domain = LineDomain(64);
  Policy policy = Policy::Line(domain).value();
  Dataset data = MakeData(domain, 400);

  auto parsed = ParseBatchRequests(
      "range eps=0.2 lo=5 hi=50\n"
      "quantiles eps=0.2 qs=0.1,0.9\n"
      "wavelet_range eps=0.3 lo=2 hi=30\n"
      "mean eps=0.2\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  std::vector<QueryRequest> constructed;
  constructed.push_back(
      MakeQueryRequest("range", 0.2, {{"lo", "5"}, {"hi", "50"}}).value());
  constructed.push_back(
      MakeQueryRequest("quantiles", 0.2, {{"qs", "0.1,0.9"}}).value());
  constructed.push_back(
      MakeQueryRequest("wavelet_range", 0.3, {{"lo", "2"}, {"hi", "30"}})
          .value());
  constructed.push_back(MakeQueryRequest("mean", 0.2).value());

  auto from_parsed = MakeEngine(policy, data)->ServeBatch(*parsed);
  auto from_constructed = MakeEngine(policy, data)->ServeBatch(constructed);
  ASSERT_EQ(from_parsed.size(), from_constructed.size());
  for (size_t i = 0; i < from_parsed.size(); ++i) {
    ASSERT_TRUE(from_parsed[i].status.ok())
        << i << ": " << from_parsed[i].status.ToString();
    ASSERT_TRUE(from_constructed[i].status.ok()) << i;
    EXPECT_EQ(from_parsed[i].values, from_constructed[i].values)
        << "query " << i;
  }
}

TEST(MeanOpTest, EdgelessPolicyReleasesExactMeanForFree) {
  auto domain = LineDomain(32);
  // theta < scale: no edges, S(mean, P) = 0, exact release at eps = 0.
  Policy policy = Policy::DistanceThreshold(domain, 0.5).value();
  Dataset data = MakeData(domain, 200);
  auto hist = data.CompleteHistogram().value();
  double sum = 0.0;
  for (size_t x = 0; x < hist.size(); ++x) {
    sum += static_cast<double>(x) * hist[x];
  }
  auto engine = MakeEngine(policy, data, 0.0);
  auto responses =
      engine->ServeBatch({MakeQueryRequest("mean", 0.0).value()});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 0.0);
  ASSERT_EQ(responses[0].values.size(), 1u);
  EXPECT_DOUBLE_EQ(responses[0].values[0], sum / data.size());
}

TEST(MeanOpTest, SumAccumulatesBucketsAscending) {
  // Floating-point addition is order-sensitive: mean's numerator must
  // keep summing (x * scale) * h[x] over buckets in ascending order, or
  // its released bytes change. A fractional scale makes the order show.
  auto domain = std::make_shared<const Domain>(
      Domain::Line(32, 0.1).value());
  Policy policy = Policy::DistanceThreshold(domain, 0.05).value();
  Dataset data = MakeData(domain, 2000, 3);
  const Histogram hist = data.CompleteHistogram().value();
  double ascending = 0.0;
  for (size_t x = 0; x < hist.size(); ++x) {
    ascending += static_cast<double>(x) * 0.1 * hist[x];
  }
  double descending = 0.0;
  for (size_t x = hist.size(); x-- > 0;) {
    descending += static_cast<double>(x) * 0.1 * hist[x];
  }
  ASSERT_NE(ascending, descending) << "fixture cannot tell the orders apart";

  auto op = QueryOpRegistry::Global().Create("mean").value();
  const QueryExecContext ctx{policy, data, hist, 0.0, 0.0};
  auto released = op->Execute(ctx, Random(kSeed));
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  ASSERT_EQ(released->size(), 1u);
  EXPECT_EQ((*released)[0], ascending / static_cast<double>(data.size()));
}

TEST(MeanOpTest, SensitivityIsPolicySpecific) {
  auto domain = LineDomain(32);
  Dataset data = MakeData(domain, 200);
  // Line graph: adjacent values differ by one scale unit -> S = 1.
  auto line = MakeEngine(Policy::Line(domain).value(), data);
  auto from_line =
      line->ServeBatch({MakeQueryRequest("mean", 0.5).value()});
  ASSERT_TRUE(from_line[0].status.ok())
      << from_line[0].status.ToString();
  EXPECT_DOUBLE_EQ(from_line[0].sensitivity, 1.0);
  // Full-domain secrets: the farthest pair differs by |T| - 1.
  auto full = MakeEngine(Policy::FullDomain(domain).value(), data);
  auto from_full =
      full->ServeBatch({MakeQueryRequest("mean", 0.5).value()});
  ASSERT_TRUE(from_full[0].status.ok())
      << from_full[0].status.ToString();
  EXPECT_DOUBLE_EQ(from_full[0].sensitivity, 31.0);
}

TEST(MeanOpTest, BatchFileErrorPaths) {
  // Unknown keys for the kind are parse errors, not silent drops.
  EXPECT_FALSE(ParseBatchRequests("mean eps=0.1 cells=0\n").ok());
  EXPECT_FALSE(ParseBatchRequests("mean eps=0.1 lo=1 hi=2\n").ok());
  EXPECT_FALSE(ParseBatchRequests("mean eps=abc\n").ok());
  // 2-D domain: refused at validation, never charged.
  auto grid = std::make_shared<const Domain>(Domain::Grid(4, 2).value());
  Policy policy = Policy::FullDomain(grid).value();
  Dataset data = MakeData(grid, 100);
  auto engine = MakeEngine(policy, data);
  auto responses =
      engine->ServeBatch({MakeQueryRequest("mean", 0.5).value()});
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(MeanOpTest, ConstrainedPolicyServedWithChainBound) {
  // Partition Line(8) into cells {0..3} / {4..7}; one pinned count
  // query q = #(x < 2). A constrained neighbour step is a lift + a
  // compensating lower, at least one of which is a G^P edge while the
  // other may change a tuple between ANY two values (compensations are
  // not confined to E(G)). For this scalar query the bound accumulates
  // *signed* per-move deltas v(y) - v(x): a lift's delta (toward
  // {0, 1}) partly cancels a lower's (away from it), so the heaviest
  // chain nets lift 2 -> 1 (delta -1) plus lower 0 -> 7 (delta +7)
  // = 6 — realized by the Def 4.1 neighbours {2, 0} vs {1, 7} — where
  // the old per-move-magnitude sum charged 3 + 7 = 10. The randomized
  // ValueWeightedChainBoundDominatesOracle seeds certify the dominance
  // direction, and SignedScalarBoundTightensMagnitudeBound pins the
  // signed <= magnitude ordering.
  auto domain = LineDomain(8);
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet constraints;
  constraints.AddWithAnswer(
      CountQuery("low", [](ValueIndex x) { return x < 2; }), 1);
  Policy policy =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(constraints))
          .value();
  Dataset data = MakeData(domain, 100);
  auto engine = MakeEngine(policy, data);
  auto responses =
      engine->ServeBatch({MakeQueryRequest("mean", 0.5).value()});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 6.0);
  EXPECT_EQ(responses[0].values.size(), 1u);
}

TEST(WaveletRangeOpTest, MatchesDirectMechanism) {
  auto domain = LineDomain(64);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 400);
  auto hist = data.CompleteHistogram().value();

  auto engine = MakeEngine(policy, data);
  auto responses = engine->ServeBatch(
      {MakeQueryRequest("wavelet_range", 0.4, {{"lo", "10"}, {"hi", "40"}})
           .value()});
  ASSERT_TRUE(responses[0].status.ok()) << responses[0].status.ToString();
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);

  // First query of the engine -> RNG stream 0 of the root seed; the
  // direct mechanism call with the same forked RNG is bit-identical.
  Random direct_rng = Random(kSeed).Fork(uint64_t{0});
  auto direct = WaveletMechanism::Release(hist, 0.4, direct_rng);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(responses[0].values,
            std::vector<double>{direct->RangeQuery(10, 40).value()});
}

TEST(WaveletRangeOpTest, BatchFileErrorPaths) {
  EXPECT_FALSE(ParseBatchRequests("wavelet_range eps=0.1 lo=x hi=2\n").ok());
  EXPECT_FALSE(ParseBatchRequests("wavelet_range eps=0.1 qs=0.5\n").ok());
  EXPECT_FALSE(
      ParseBatchRequests("wavelet_range eps=0.1 lo=-1 hi=2\n").ok());
  // Out-of-domain range: admitted (the shape is fine), fails at
  // execution, and the charge comes back.
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  Dataset data = MakeData(domain, 200);
  auto engine = MakeEngine(policy, data, 1.0);
  auto responses = engine->ServeBatch(
      {MakeQueryRequest("wavelet_range", 0.3, {{"lo", "5"}, {"hi", "900"}})
           .value()});
  ASSERT_FALSE(responses[0].status.ok());
  EXPECT_TRUE(responses[0].values.empty());
  EXPECT_TRUE(responses[0].receipt.refunded);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
  // 2-D domain: refused at validation.
  auto grid = std::make_shared<const Domain>(Domain::Grid(4, 2).value());
  auto grid_engine =
      MakeEngine(Policy::FullDomain(grid).value(), MakeData(grid, 100));
  auto refused = grid_engine->ServeBatch(
      {MakeQueryRequest("wavelet_range", 0.3, {{"lo", "0"}, {"hi", "1"}})
           .value()});
  EXPECT_EQ(refused[0].status.code(), StatusCode::kInvalidArgument);
}

TEST(QueryOpTest, KeyValueBagRejectsLeftoversAndKeepsLastValue) {
  KeyValueBag bag("on line 1");
  bag.Add("lo", "1");
  bag.Add("lo", "2");
  bag.Add("mystery", "3");
  size_t lo = 0;
  ASSERT_TRUE(bag.TakeIndex("lo", &lo).ok());
  EXPECT_EQ(lo, 2u);  // repeated keys: last one wins
  Status leftover = bag.ExpectEmpty("range");
  EXPECT_EQ(leftover.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(leftover.message().find("mystery"), std::string::npos);
}

}  // namespace
}  // namespace blowfish
