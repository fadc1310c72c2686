// The `quadtree` scenario column, end to end: the self-registered op
// serves 2-D rectangle counts through ReleaseEngine (CLI batch) and
// over the wire, reading the engine's memoized h(D), and the mechanism's
// Blowfish free-levels optimization behaves exactly as Sec 7.2's
// analysis says it must:
//
//  * under an aligned uniform-grid partition policy the coarse levels
//    are released EXACTLY (the spatial analogue of "the histogram of P
//    can be released without noise"), under the full graph no level is;
//  * the histogram-fed Release overload — what the engine's h(D) feeds
//    — is byte-identical to the row-walking Dataset overload;
//  * pinned constraints disable the free levels (a compensating move is
//    not confined to a partition cell) and are accepted only when the
//    caller declares it has group-privacy-scaled epsilon, which is what
//    the op does: eps' = eps * 2 / S(h, P);
//  * the engine serves pinned 2-D policies at the weighted Thm 8.2
//    chain bound (the "h" shape shared with `histogram`).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "mech/quadtree.h"
#include "net/client.h"
#include "net/server.h"
#include "server/engine_host.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

std::shared_ptr<const Domain> GridDomain(uint64_t m) {
  return std::make_shared<const Domain>(Domain::Grid(m, 2).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed = 11) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

Histogram CompleteHistogram(const Dataset& data) {
  Histogram h(data.domain().size());
  for (ValueIndex t : data.tuples()) h[t] += 1.0;
  return h;
}

QueryRequest Request(
    const std::string& kind, double eps,
    const std::vector<std::pair<std::string, std::string>>& kv = {}) {
  auto request = MakeQueryRequest(kind, eps, kv);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  return std::move(*request);
}

std::unique_ptr<ReleaseEngine> MakeEngine(const Policy& policy,
                                          const Dataset& data) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 4.0;
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

TEST(QuadtreeMechanismTest, AlignedPartitionLevelsAreExactFullGraphNoisy) {
  // 8x8 grid split 2x2: partition cells are 4x4 blocks, so quadtree
  // levels 0 (1x1) and 1 (2x2) lie inside single partition cells and
  // must be EXACT; levels 2..3 are noised. Under the full graph only
  // the public total (level 0 by convention) stays exact.
  auto domain = GridDomain(8);
  Dataset data = MakeData(domain, 200);
  Policy partition = Policy::GridPartition(domain, {2, 2}).value();

  Random rng(kSeed);
  QuadtreeOptions opts;
  auto released =
      QuadtreeMechanism::Release(data, partition, 0.5, opts, rng);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(released->depth(), 3u);
  EXPECT_EQ(released->exact_levels(), 1u);

  // The exact level-1 quadrant counts are the true 4x4-block totals:
  // read them back as rectangle counts at the exact granularity.
  double total = 0.0;
  for (size_t qx = 0; qx < 2; ++qx) {
    for (size_t qy = 0; qy < 2; ++qy) {
      Rectangle quadrant;
      quadrant.lo = {4 * qx, 4 * qy};
      quadrant.hi = {4 * qx + 3, 4 * qy + 3};
      double truth = 0.0;
      for (ValueIndex t : data.tuples()) {
        if (quadrant.Contains(*domain, t)) truth += 1.0;
      }
      auto count = released->RangeCount(quadrant);
      ASSERT_TRUE(count.ok()) << count.status().ToString();
      EXPECT_DOUBLE_EQ(*count, truth) << "quadrant " << qx << "," << qy;
      total += *count;
    }
  }
  EXPECT_DOUBLE_EQ(total, static_cast<double>(data.size()));

  Policy full =
      Policy::Create(domain, std::make_shared<FullGraph>(domain->size()))
          .value();
  Random full_rng(kSeed);
  auto dp = QuadtreeMechanism::Release(data, full, 0.5, opts, full_rng);
  ASSERT_TRUE(dp.ok()) << dp.status().ToString();
  EXPECT_EQ(dp->exact_levels(), 0u);
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(full, 3), 0u);
  EXPECT_EQ(QuadtreeMechanism::ExactLevelsForPolicy(partition, 3), 1u);
}

TEST(QuadtreeMechanismTest, HistogramOverloadMatchesDatasetOverload) {
  // The histogram-fed form must be indistinguishable from the row walk:
  // same policy, same epsilon, same rng seed -> bit-identical trees,
  // probed through rectangle counts.
  auto domain = GridDomain(8);
  Dataset data = MakeData(domain, 150, 23);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();
  QuadtreeOptions opts;

  Random rows_rng(kSeed + 1);
  auto from_rows =
      QuadtreeMechanism::Release(data, policy, 0.25, opts, rows_rng);
  ASSERT_TRUE(from_rows.ok()) << from_rows.status().ToString();
  Random hist_rng(kSeed + 1);
  auto from_hist = QuadtreeMechanism::Release(
      CompleteHistogram(data), policy, 0.25, opts, hist_rng);
  ASSERT_TRUE(from_hist.ok()) << from_hist.status().ToString();

  EXPECT_EQ(from_rows->exact_levels(), from_hist->exact_levels());
  Random probe_rng(99);
  for (int probe = 0; probe < 32; ++probe) {
    size_t x0 = static_cast<size_t>(probe_rng.UniformInt(0, 7));
    size_t x1 = static_cast<size_t>(probe_rng.UniformInt(0, 7));
    size_t y0 = static_cast<size_t>(probe_rng.UniformInt(0, 7));
    size_t y1 = static_cast<size_t>(probe_rng.UniformInt(0, 7));
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
    Rectangle rect;
    rect.lo = {x0, y0};
    rect.hi = {x1, y1};
    auto a = from_rows->RangeCount(rect);
    auto b = from_hist->RangeCount(rect);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "probe " << probe;  // bit-exact, not approximate
  }
}

TEST(QuadtreeMechanismTest, PinnedConstraintsGateAcceptanceAndFreeLevels) {
  auto domain = GridDomain(8);
  Dataset data = MakeData(domain, 120, 31);
  auto part = PartitionGraph::UniformGrid(domain, {2, 2}).value();
  ConstraintSet cs;
  CountQuery corner("corner", [&](ValueIndex x) {
    return domain->Coordinate(x, 0) < 4 && domain->Coordinate(x, 1) < 4;
  });
  const uint64_t answer = corner.Evaluate(data);
  cs.AddWithAnswer(std::move(corner), answer);
  Policy pinned =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(cs))
          .value();

  // Without the caller-calibrated flag, constrained policies refuse:
  // the mechanism cannot invent the chain bound itself.
  Random rng(kSeed);
  QuadtreeOptions opts;
  auto refused = QuadtreeMechanism::Release(data, pinned, 0.5, opts, rng);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), StatusCode::kUnimplemented);

  // With it, the release goes through but NO level is exact, even
  // though the partition alignment alone would allow one: compensating
  // moves cross partition cells.
  opts.caller_calibrated_constraints = true;
  auto released = QuadtreeMechanism::Release(data, pinned, 0.5, opts, rng);
  ASSERT_TRUE(released.ok()) << released.status().ToString();
  EXPECT_EQ(released->exact_levels(), 0u);
}

TEST(SpatialOpsE2ETest, EngineServesQuadtreeUnconstrainedAndPinned) {
  auto domain = GridDomain(8);
  Dataset data = MakeData(domain, 200);
  Policy unconstrained = Policy::GridPartition(domain, {2, 2}).value();

  // Unconstrained: S(h, P) = 2 and the whole-domain rectangle decomposes
  // into the four exact level-1 quadrants — the engine releases the
  // EXACT total even at a tiny epsilon.
  auto engine = MakeEngine(unconstrained, data);
  auto responses = engine->ServeBatch(ParseBatchRequests(
      "quadtree eps=0.125 x0=0 x1=7 y0=0 y1=7 label=whole\n"
      "quadtree eps=0.25 x0=1 x1=5 y0=2 y1=6 label=inner\n").value());
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_DOUBLE_EQ(r.sensitivity, 2.0);
  }
  EXPECT_DOUBLE_EQ(responses[0].values[0],
                   static_cast<double>(data.size()));

  // Pinned: a 2x2 corner constraint sits strictly INSIDE the 4x4
  // partition cell (0, 0), so an in-cell G^P edge can cross it and the
  // weighted chain bound exceeds 2 (lift + compensating lower). The op
  // then scales epsilon down by 2 / S for group privacy, the
  // free-levels path is off, and an inner rectangle comes back noisy.
  auto part = PartitionGraph::UniformGrid(domain, {2, 2}).value();
  ConstraintSet cs;
  CountQuery corner("corner", [&](ValueIndex x) {
    return domain->Coordinate(x, 0) < 2 && domain->Coordinate(x, 1) < 2;
  });
  const uint64_t answer = corner.Evaluate(data);
  cs.AddWithAnswer(std::move(corner), answer);
  Policy pinned =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(cs))
          .value();
  auto pinned_engine = MakeEngine(pinned, data);
  auto pinned_responses = pinned_engine->ServeBatch(ParseBatchRequests(
      "quadtree eps=0.25 x0=0 x1=5 y0=0 y1=5 label=inner\n").value());
  ASSERT_EQ(pinned_responses.size(), 1u);
  ASSERT_TRUE(pinned_responses[0].status.ok())
      << pinned_responses[0].status.ToString();
  EXPECT_GT(pinned_responses[0].sensitivity, 2.0);
  Rectangle inner;
  inner.lo = {0, 0};
  inner.hi = {5, 5};
  double inner_truth = 0.0;
  for (ValueIndex t : data.tuples()) {
    if (inner.Contains(*domain, t)) inner_truth += 1.0;
  }
  EXPECT_NE(pinned_responses[0].values[0], inner_truth);
  EXPECT_GT(pinned_engine->accountant().Spent(""), 0.0);

  // Structured refusals stay structured: a 1-D tenant and an empty
  // rectangle never reach the mechanism.
  auto line =
      std::make_shared<const Domain>(Domain::Line(16).value());
  Policy line_policy = Policy::GridPartition(line, {4}).value();
  Dataset line_data = MakeData(line, 50, 3);
  auto line_engine = MakeEngine(line_policy, line_data);
  auto refused = line_engine->ServeBatch(
      {Request("quadtree", 0.25,
               {{"x0", "0"}, {"x1", "1"}, {"y0", "0"}, {"y1", "1"}})});
  ASSERT_EQ(refused.size(), 1u);
  EXPECT_EQ(refused[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(refused[0].status.message().find("2-attribute"),
            std::string::npos);
  EXPECT_FALSE(
      ParseBatchRequests("quadtree eps=0.25 x0=3 x1=1 y0=0 y1=1\n").ok());
}

TEST(SpatialOpsE2ETest, QuadtreeServesOverTheWire) {
  // The full daemon path: a 2-D tenant behind the frame protocol
  // answers a quadtree batch line; the engine needed zero edits to
  // route the new kind (registry extensibility, wire included).
  auto domain = GridDomain(8);
  Dataset data = MakeData(domain, 200);
  Policy policy = Policy::GridPartition(domain, {2, 2}).value();

  EngineHostOptions host_options;
  host_options.num_threads = 2;
  EngineHost host(host_options);
  TenantOptions tenant;
  tenant.default_session_budget = 1.0;
  tenant.root_seed = kSeed;
  ASSERT_TRUE(host.AddTenant("p", "d", policy, data, tenant).ok());

  auto server = BlowfishServer::Start(&host);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client =
      BlowfishClient::Connect("127.0.0.1", (*server)->port(), "p", "d");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto responses = (*client)->SubmitBatchText(
      "quadtree eps=0.25 x0=0 x1=7 y0=0 y1=7 label=whole\n"
      "quadtree eps=0.25 x0=0 x1=3 y0=0 y1=3 label=corner\n");
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 2u);
  for (const QueryResponse& r : *responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    ASSERT_EQ(r.values.size(), 1u);
    EXPECT_DOUBLE_EQ(r.sensitivity, 2.0);
  }
  EXPECT_DOUBLE_EQ((*responses)[0].values[0],
                   static_cast<double>(data.size()));
  EXPECT_TRUE((*client)->Bye().ok());
  (*server)->Stop();
}

}  // namespace
}  // namespace blowfish
