// End-to-end serving of constrained policies for the parallel /
// value-weighted query family: batch-file round-trips of
// `cell_histogram` (as a parallel group), `mean`, and `wavelet_range`
// through ReleaseEngine and EngineHost on two constrained fixtures,
// asserting
//  * bit-identical payloads across pool sizes {0, 1, 8} (the noise a
//    query draws is a function of admission order, never scheduling),
//  * correct budget accounting: the parallel group is charged once at
//    max(eps) — a per-member charge would overrun the exactly-sized
//    budget below — and both members are noised at the shared
//    union-cells sensitivity,
//  * the formerly refused ops (kmeans, the ordered S_T family) now
//    serve pinned policies through the cumulative-histogram /
//    move-norm chain bounds, and the one documented holdout
//    (hier_range, whose per-node budget split has no per-move distance
//    bound under chains) refuses with a structured status naming the
//    refusing op and the refused policy.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "core/sensitivity.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
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

/// Fixture A: Line(8) split into G^P cells {0..3} / {4..7}, one count
/// constraint #(x < 2) pinned from the dataset. Its support lies in
/// cell 0.
Policy FixtureA(const std::shared_ptr<const Domain>& domain,
                const Dataset& data) {
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet cs;
  CountQuery low("low", [](ValueIndex x) { return x < 2; });
  const uint64_t answer = low.Evaluate(data);
  cs.AddWithAnswer(std::move(low), answer);
  return Policy::Create(domain,
                        std::shared_ptr<const SecretGraph>(part.release()),
                        std::move(cs))
      .value();
}

/// Fixture B: Line(16) split into four G^P cells of four values, two
/// disjoint-interval count constraints pinned from the dataset
/// (disjoint supports keep the all-pairs Def 8.2 sparsity: no single
/// move can lift or lower both). Their supports lie in cells 0 and 2.
Policy FixtureB(const std::shared_ptr<const Domain>& domain,
                const Dataset& data) {
  auto part = PartitionGraph::UniformGrid(domain, {4}).value();
  ConstraintSet cs;
  CountQuery lo("lo", [](ValueIndex x) { return x >= 1 && x <= 2; });
  CountQuery hi("hi", [](ValueIndex x) { return x >= 9 && x <= 10; });
  const uint64_t lo_answer = lo.Evaluate(data);
  const uint64_t hi_answer = hi.Evaluate(data);
  cs.AddWithAnswer(std::move(lo), lo_answer);
  cs.AddWithAnswer(std::move(hi), hi_answer);
  return Policy::Create(domain,
                        std::shared_ptr<const SecretGraph>(part.release()),
                        std::move(cs))
      .value();
}

/// The batch under test, as a batch file. Epsilons are powers of two so
/// the exact budget arithmetic below has no rounding slack: the group
/// costs max(0.25, 0.125) = 0.25, the whole batch exactly 1.0.
constexpr char kBatchText[] =
    "cell_histogram eps=0.25 cells=0 group=g label=cells0\n"
    "cell_histogram eps=0.125 cells=1 group=g label=cells1\n"
    "mean eps=0.25\n"
    "wavelet_range eps=0.25 lo=1 hi=5\n"
    "histogram eps=0.25\n";

std::vector<QueryRequest> ParseBatch() {
  auto requests = ParseBatchRequests(kBatchText);
  EXPECT_TRUE(requests.ok()) << requests.status().ToString();
  return std::move(*requests);
}

std::unique_ptr<ReleaseEngine> MakeEngine(
    const Policy& policy, const Dataset& data,
    std::shared_ptr<ThreadPool> pool = nullptr) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 1.0;
  if (pool != nullptr) options.pool = std::move(pool);
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

struct Fixture {
  std::string name;
  Policy policy;
  Dataset data;
};

std::vector<Fixture> Fixtures() {
  std::vector<Fixture> out;
  {
    auto domain = LineDomain(8);
    Dataset data = MakeData(domain, 120);
    Policy policy = FixtureA(domain, data);
    out.push_back(Fixture{"A", std::move(policy), std::move(data)});
  }
  {
    auto domain = LineDomain(16);
    Dataset data = MakeData(domain, 200, 13);
    Policy policy = FixtureB(domain, data);
    out.push_back(Fixture{"B", std::move(policy), std::move(data)});
  }
  return out;
}

TEST(ConstrainedOpsE2ETest, EngineServesBatchPoolSizeInvariant) {
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto reference_engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryRequest> batch = ParseBatch();
    const std::vector<QueryResponse> reference =
        reference_engine->ServeBatch(batch);
    ASSERT_EQ(reference.size(), 5u);
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_TRUE(reference[i].status.ok())
          << "query " << i << ": " << reference[i].status.ToString();
      EXPECT_FALSE(reference[i].values.empty()) << "query " << i;
      EXPECT_GT(reference[i].sensitivity, 0.0) << "query " << i;
    }
    // Both parallel members carry the shared union-cells sensitivity.
    EXPECT_DOUBLE_EQ(reference[0].sensitivity, reference[1].sensitivity);

    // The whole batch costs exactly the session budget: 0.25 (group
    // max, charged once) + 0.25 + 0.25 + 0.25. A per-member group
    // charge (0.375) would have refused the last query.
    EXPECT_DOUBLE_EQ(reference_engine->accountant().Spent(""), 1.0);
    // The one group charge is attributed to the most expensive member.
    EXPECT_DOUBLE_EQ(reference[0].receipt.charged, 0.25);
    EXPECT_DOUBLE_EQ(reference[1].receipt.charged, 0.0);

    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      auto engine =
          MakeEngine(f.policy, f.data,
                     std::make_shared<ThreadPool>(pool_size));
      const std::vector<QueryResponse> responses =
          engine->ServeBatch(ParseBatch());
      ASSERT_EQ(responses.size(), reference.size());
      for (size_t i = 0; i < responses.size(); ++i) {
        EXPECT_EQ(responses[i].status.code(), reference[i].status.code())
            << "pool " << pool_size << " query " << i;
        EXPECT_EQ(responses[i].values, reference[i].values)
            << "pool " << pool_size << " query " << i;
        EXPECT_DOUBLE_EQ(responses[i].sensitivity,
                         reference[i].sensitivity)
            << "pool " << pool_size << " query " << i;
      }
    }
  }
}

TEST(ConstrainedOpsE2ETest, HostServesBatchPoolSizeInvariant) {
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    std::vector<std::vector<QueryResponse>> runs;
    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      EngineHostOptions host_options;
      host_options.num_threads = pool_size;
      EngineHost host(host_options);
      TenantOptions tenant;
      tenant.default_session_budget = 1.0;
      ASSERT_TRUE(host.AddTenant("p", "d", f.policy, f.data, tenant).ok());
      auto responses = host.ServeBatch("p", "d", ParseBatch());
      ASSERT_TRUE(responses.ok()) << responses.status().ToString();
      ASSERT_EQ(responses->size(), 5u);
      for (size_t i = 0; i < responses->size(); ++i) {
        ASSERT_TRUE((*responses)[i].status.ok())
            << "pool " << pool_size << " query " << i << ": "
            << (*responses)[i].status.ToString();
      }
      // The batch consumed the whole tenant budget in one parallel-aware
      // charge; the cheapest further query is refused.
      auto refused = host.ServeBatch(
          "p", "d", {MakeQueryRequest("histogram", 0.125).value()});
      ASSERT_TRUE(refused.ok());
      EXPECT_EQ((*refused)[0].status.code(),
                StatusCode::kResourceExhausted)
          << "pool " << pool_size;
      runs.push_back(std::move(*responses));
    }
    for (size_t r = 1; r < runs.size(); ++r) {
      for (size_t i = 0; i < runs[r].size(); ++i) {
        EXPECT_EQ(runs[r][i].values, runs[0][i].values)
            << "run " << r << " query " << i;
      }
    }
  }
}

TEST(ConstrainedOpsE2ETest, UnconstrainedResultsUnchangedByConstrainedPath) {
  // The same batch against the same data under the UNCONSTRAINED twin
  // of fixture A exercises the legacy code paths: per-member group
  // sensitivities (cell 1 has S = 2, not the union's), and the wavelet
  // epsilon scale factor 1. This guards the acceptance criterion that
  // previously-passing unconstrained results stay bit-identical: the
  // constrained machinery must be invisible when no constraint is
  // pinned.
  auto domain = LineDomain(8);
  Dataset data = MakeData(domain, 120);
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  Policy unconstrained =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()))
          .value();
  auto engine = MakeEngine(unconstrained, data);
  const std::vector<QueryResponse> responses =
      engine->ServeBatch(ParseBatch());
  ASSERT_EQ(responses.size(), 5u);
  for (size_t i = 0; i < responses.size(); ++i) {
    ASSERT_TRUE(responses[i].status.ok())
        << "query " << i << ": " << responses[i].status.ToString();
  }
  // Per-member scales, not the shared union scale.
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, 2.0);
  EXPECT_DOUBLE_EQ(responses[1].sensitivity, 2.0);

  // An UNPINNED constraint set restricts nothing (SatisfiedBy ignores
  // queries without answers), so it must behave exactly like the
  // unconstrained policy: same admissions, same scales, and — with the
  // same root seed — bit-identical noise.
  auto part2 = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet unpinned;
  unpinned.Add(CountQuery("low", [](ValueIndex x) { return x < 2; }));
  Policy inert =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part2.release()),
                     std::move(unpinned))
          .value();
  auto inert_engine = MakeEngine(inert, data);
  const std::vector<QueryResponse> inert_responses =
      inert_engine->ServeBatch(ParseBatch());
  ASSERT_EQ(inert_responses.size(), responses.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    EXPECT_EQ(inert_responses[i].status.code(), responses[i].status.code())
        << "query " << i;
    EXPECT_EQ(inert_responses[i].values, responses[i].values)
        << "query " << i;
    EXPECT_DOUBLE_EQ(inert_responses[i].sensitivity,
                     responses[i].sensitivity)
        << "query " << i;
  }
}

TEST(ConstrainedOpsE2ETest, ZeroEpsilonMemberRefusedAtUnionScale) {
  // Cell 2 is a singleton {6} with no G^P edge inside, and the pinned
  // constraint is CONSTANT (it counts every tuple) so no move ever
  // crosses it: the member's own sensitivity is exactly 0 and admission
  // pass 1 accepts eps=0 as a free exact release. (Any crossable pinned
  // query would already give the singleton cell a positive own
  // sensitivity — a compensating move can land there — and pass 1 would
  // refuse eps=0 itself.) But the group is noised at the shared
  // union-cells scale, which is positive via cell 0's free in-cell
  // moves, so the zero-epsilon member must be refused at admission, as
  // a group, with nothing charged — not admitted, charged, and then
  // failed inside Execute.
  auto domain = LineDomain(7);
  Dataset data = MakeData(domain, 80);
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1, 2};
  auto part = std::make_shared<const PartitionGraph>(
      cell_of.size(), [cell_of](ValueIndex x) { return cell_of[x]; },
      "partition|e2e");
  ConstraintSet cs;
  cs.AddWithAnswer(CountQuery("all", [](ValueIndex) { return true; }),
                   data.size());
  Policy policy = Policy::Create(domain, part, std::move(cs)).value();
  auto engine = MakeEngine(policy, data);
  const std::vector<QueryResponse> responses = engine->ServeBatch(
      {MakeQueryRequest("cell_histogram", 0.25,
                        {{"cells", "0"}, {"group", "g"}})
           .value(),
       MakeQueryRequest("cell_histogram", 0.0,
                        {{"cells", "2"}, {"group", "g"}})
           .value()});
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(responses[1].status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(responses[1].status.message().find("union-cells"),
            std::string::npos)
      << responses[1].status.message();
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ConstrainedOpsE2ETest, FormerlyRefusedOpsNowServePinnedPolicies) {
  // kmeans and the ordered S_T family used to refuse every constrained
  // policy; both now route their linear queries through the weighted
  // Thm 8.2 chain bound (q_sum/q_size move norms, the cumulative
  // histogram) and serve pinned fixtures end to end.
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryResponse> responses = engine->ServeBatch(
        {MakeQueryRequest("kmeans", 0.25, {{"k", "2"}}).value(),
         MakeQueryRequest("range", 0.25, {{"lo", "0"}, {"hi", "3"}}).value(),
         MakeQueryRequest("cdf", 0.125).value(),
         MakeQueryRequest("quantiles", 0.125, {{"qs", "0.25,0.75"}})
             .value()});
    ASSERT_EQ(responses.size(), 4u);
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << "query " << i << ": " << responses[i].status.ToString();
      EXPECT_FALSE(responses[i].values.empty()) << "query " << i;
      EXPECT_GT(responses[i].sensitivity, 0.0) << "query " << i;
    }
    // Everything was admitted and charged.
    EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.75);
  }
}

TEST(ConstrainedOpsE2ETest, HierRangeRefusesWithStructuredStatus) {
  // hier_range is the one documented constrained holdout: the ordered
  // hierarchical mechanism splits its budget per tree node assuming a
  // per-move distance bound, which Thm 8.2 chains do not provide.
  // Constrained callers are routed to `range` instead; the refusal
  // must be structured — naming the op and the refused policy — and
  // must charge nothing.
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    auto engine = MakeEngine(f.policy, f.data);
    const std::vector<QueryResponse> responses = engine->ServeBatch(
        {MakeQueryRequest("hier_range", 0.25, {{"lo", "0"}, {"hi", "3"}})
             .value()});
    ASSERT_EQ(responses.size(), 1u);
    EXPECT_EQ(responses[0].status.code(), StatusCode::kUnimplemented);
    EXPECT_NE(responses[0].status.message().find("op 'hier_range'"),
              std::string::npos)
        << responses[0].status.message();
    EXPECT_NE(responses[0].status.message().find("constrained policies"),
              std::string::npos);
    EXPECT_NE(responses[0].status.message().find("partition"),
              std::string::npos)
        << "refusal must name the policy's secret graph: "
        << responses[0].status.message();
    // Nothing was charged for the refused query.
    EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
  }
}

TEST(ConstrainedOpsE2ETest, StraddlingGroupServedAtUnionScale) {
  // Fixture B's constraint "lo" lives in cell 0 and "hi" in cell 2. A
  // group splitting cells {0, 1} / {2, 3} is served. So is a group whose
  // members a constraint couples: a single pinned interval spanning
  // cells 0 and 1 makes the {0} / {1} grouping straddle it, yet both
  // members are noised at the union-cells sensitivity of {0, 1}, which
  // bounds the whole group's L1 change per neighbour step whichever
  // cells the step touches, so the group costs max(eps) once.
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 200, 13);
  Policy policy = FixtureB(domain, data);
  auto engine = MakeEngine(policy, data);
  auto ok_responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.125 cells=0,1 group=g\n"
      "cell_histogram eps=0.125 cells=2,3 group=g\n").value());
  ASSERT_EQ(ok_responses.size(), 2u);
  EXPECT_TRUE(ok_responses[0].status.ok())
      << ok_responses[0].status.ToString();
  EXPECT_TRUE(ok_responses[1].status.ok());

  auto part = PartitionGraph::UniformGrid(domain, {4}).value();
  ConstraintSet straddling;
  CountQuery wide("wide", [](ValueIndex x) { return x >= 3 && x <= 4; });
  const uint64_t answer = wide.Evaluate(data);
  straddling.AddWithAnswer(std::move(wide), answer);
  Policy coupled =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(straddling))
          .value();
  const ReleaseEngineOptions defaults;
  auto s_union = ConstrainedCellHistogramSensitivity(
      coupled, {0, 1}, defaults.max_edges, defaults.max_pairs,
      defaults.max_policy_graph_vertices);
  ASSERT_TRUE(s_union.ok()) << s_union.status().ToString();
  auto coupled_engine = MakeEngine(coupled, data);
  auto served = coupled_engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.125 cells=0 group=g\n"
      "cell_histogram eps=0.125 cells=1 group=g\n").value());
  ASSERT_EQ(served.size(), 2u);
  for (const QueryResponse& r : served) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.receipt.parallel);
    EXPECT_DOUBLE_EQ(r.sensitivity, *s_union);
    EXPECT_EQ(r.values.size(), 4u);
  }
  EXPECT_DOUBLE_EQ(coupled_engine->accountant().Spent(""), 0.125);
}

TEST(ConstrainedOpsE2ETest, UnionScaleFailureRefusesGroupAtZeroCharge) {
  // Two overlapping pinned intervals: the move 0 -> 4 lifts both, so
  // the constraints are not sparse over value pairs and no union-cells
  // sensitivity exists. The group is refused as a whole, before any
  // charge.
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 200, 13);
  auto part = PartitionGraph::UniformGrid(domain, {4}).value();
  ConstraintSet overlapping;
  CountQuery a("a", [](ValueIndex x) { return x >= 1 && x <= 5; });
  CountQuery b("b", [](ValueIndex x) { return x >= 3 && x <= 6; });
  const uint64_t a_answer = a.Evaluate(data);
  const uint64_t b_answer = b.Evaluate(data);
  overlapping.AddWithAnswer(std::move(a), a_answer);
  overlapping.AddWithAnswer(std::move(b), b_answer);
  Policy policy =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(overlapping))
          .value();
  auto engine = MakeEngine(policy, data);
  auto refused = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.125 cells=0 group=g\n"
      "cell_histogram eps=0.125 cells=1 group=g\n").value());
  ASSERT_EQ(refused.size(), 2u);
  for (const QueryResponse& r : refused) {
    EXPECT_EQ(r.status.code(), StatusCode::kFailedPrecondition)
        << r.status.ToString();
    EXPECT_NE(r.status.message().find("not sparse"), std::string::npos)
        << r.status.message();
  }
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.0);
}

TEST(ConstrainedOpsE2ETest, WholeCellCountsAdmitGroupAtMaxEpsilon) {
  // The closing example of Sec 4.1: Line(6) cut into cells {0, 1, 2}
  // and {3, 4, 5}, with the count of each whole cell publicly known.
  // The cells are disjoint and the union scale is finite, so the group
  // is admitted, both members share that scale, and the group is
  // charged once at max(eps).
  auto domain = LineDomain(6);
  Dataset data = MakeData(domain, 60);
  auto part = PartitionGraph::UniformGrid(domain, {2}).value();
  ConstraintSet cs;
  CountQuery in_s("in_S", [](ValueIndex x) { return x < 3; });
  CountQuery in_ts("in_TS", [](ValueIndex x) { return x >= 3; });
  const uint64_t s_answer = in_s.Evaluate(data);
  const uint64_t ts_answer = in_ts.Evaluate(data);
  cs.AddWithAnswer(std::move(in_s), s_answer);
  cs.AddWithAnswer(std::move(in_ts), ts_answer);
  Policy policy =
      Policy::Create(domain,
                     std::shared_ptr<const SecretGraph>(part.release()),
                     std::move(cs))
          .value();
  auto engine = MakeEngine(policy, data);
  auto responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.25 cells=0 group=g\n"
      "cell_histogram eps=0.125 cells=1 group=g\n").value());
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_TRUE(r.receipt.parallel);
    EXPECT_EQ(r.values.size(), 3u);
  }
  // Both members share the union-cells noise scale.
  EXPECT_GT(responses[0].sensitivity, 0.0);
  EXPECT_DOUBLE_EQ(responses[0].sensitivity, responses[1].sensitivity);
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.25);
}

TEST(ConstrainedOpsE2ETest, ConfinedGroupNoisedAtUnionScale) {
  // Line(6) cut into cells {0..3} and {4, 5}, one pinned count of
  // {1, 2} inside cell 0. A compensating move can carry a tuple from
  // cell 0 into cell 1, so both members are noised at the union-cells
  // scale S = 4 (cell 1 alone would be 2), and the group costs max(eps)
  // once.
  auto domain = LineDomain(6);
  Dataset data = Dataset::Create(domain, {0, 2, 3, 4, 4, 5}).value();
  const std::vector<uint64_t> cell_of{0, 0, 0, 0, 1, 1};
  auto part = std::make_shared<const PartitionGraph>(
      cell_of.size(), [cell_of](ValueIndex x) { return cell_of[x]; },
      "partition|e2e");
  ConstraintSet cs;
  cs.AddWithAnswer(
      CountQuery("mid", [](ValueIndex x) { return x == 1 || x == 2; }), 1);
  Policy policy = Policy::Create(domain, part, std::move(cs)).value();
  auto engine = MakeEngine(policy, data);
  auto responses = engine->ServeBatch(ParseBatchRequests(
      "cell_histogram eps=0.5 cells=0 group=g\n"
      "cell_histogram eps=0.25 cells=1 group=g\n").value());
  ASSERT_EQ(responses.size(), 2u);
  for (const QueryResponse& r : responses) {
    ASSERT_TRUE(r.status.ok()) << r.status.ToString();
    EXPECT_DOUBLE_EQ(r.sensitivity, 4.0);
  }
  EXPECT_EQ(responses[0].values.size(), 4u);  // values 0..3
  EXPECT_EQ(responses[1].values.size(), 2u);  // values 4..5
  EXPECT_DOUBLE_EQ(engine->accountant().Spent(""), 0.5);
}

}  // namespace
}  // namespace blowfish
