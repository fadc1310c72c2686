// h(D) memo identity, end to end: every registered QueryOp served
// through ReleaseEngine at pool sizes {0, 1, 8}, on line and grid
// fixtures (unconstrained and constrained twins of each), for three
// consecutive batches. Each admitted query's payload must be
// bit-identical to a reference the test builds itself — the op run on
// a freshly counted Dataset::CompleteHistogram() with the RNG stream
// Random(kSeed).Fork(stream_id), stream ids assigned in admission order
// — so the engine's memoized h(D) is unobservable in its output. Full
// responses (statuses, sensitivities, receipts) and the ledger must
// also be identical across pool sizes, and each engine must count h(D)
// exactly once.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "core/secret_graph.h"
#include "engine/batch_request.h"
#include "engine/release_engine.h"
#include "obs/metrics.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;
constexpr double kEps = 0.25;

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

/// One batch line per registered kind, each with its own ExampleArgs —
/// enumerating the registry keeps this suite honest when a new op file
/// lands: the new kind is covered (or fails loudly) with zero edits here.
std::string WholeRegistryBatchText() {
  std::string text;
  for (const std::string& kind :
       QueryOpRegistry::Global().KnownKinds()) {
    auto op = QueryOpRegistry::Global().Create(kind);
    EXPECT_TRUE(op.ok()) << op.status().ToString();
    text += kind + " eps=" + std::to_string(kEps) + " label=" + kind;
    const std::string args = (*op)->ExampleArgs();
    if (!args.empty()) text += " " + args;
    text += "\n";
  }
  return text;
}

std::vector<QueryRequest> WholeRegistryBatch() {
  auto requests = ParseBatchRequests(WholeRegistryBatchText());
  EXPECT_TRUE(requests.ok()) << requests.status().ToString();
  return std::move(*requests);
}

struct Fixture {
  std::string name;
  Policy policy;
  Dataset data;
  /// Kinds expected to refuse this fixture (dimension mismatch or the
  /// documented hier_range constrained holdout). Refusals are part of
  /// the transcript: they must be byte-identical across pools and
  /// batches, same as served payloads.
  std::vector<std::string> expected_refusals;
};

/// Five fixtures covering the registry's whole domain/graph/constraint
/// matrix: Line(16) split into four G^P cells (plus a constrained twin
/// pinning one count constraint from the data), Line(16) under the
/// line secret graph, and an 8x8 grid split into 2x2 G^P cells (plus
/// its constrained twin). On the partitioned line the refusals are the
/// spatial op (quadtree needs two attributes) and hier_range (the OH
/// mechanism resolves theta from line/full/threshold graphs only; on
/// the pinned twin it refuses as the documented constrained holdout);
/// on the line graph cell_histogram refuses (no G^P cells) and
/// hier_range finally serves; on the grid the whole 1-D family refuses
/// instead.
std::vector<Fixture> Fixtures() {
  const std::vector<std::string> kGridRefusals{
      "cdf", "hier_range", "mean", "quantiles", "range", "wavelet_range"};
  std::vector<Fixture> out;
  auto domain = LineDomain(16);
  Dataset data = MakeData(domain, 300, 13);
  {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    Policy policy =
        Policy::Create(domain,
                       std::shared_ptr<const SecretGraph>(part.release()))
            .value();
    out.push_back(Fixture{"unconstrained", std::move(policy), data,
                          {"hier_range", "quadtree"}});
  }
  {
    auto part = PartitionGraph::UniformGrid(domain, {4}).value();
    ConstraintSet cs;
    CountQuery low("low", [](ValueIndex x) { return x < 4; });
    const uint64_t answer = low.Evaluate(data);
    cs.AddWithAnswer(std::move(low), answer);
    Policy policy =
        Policy::Create(domain,
                       std::shared_ptr<const SecretGraph>(part.release()),
                       std::move(cs))
            .value();
    out.push_back(Fixture{"constrained", std::move(policy), data,
                          {"hier_range", "quadtree"}});
  }
  {
    Policy policy =
        Policy::Create(domain, std::make_shared<LineGraph>(domain->size()))
            .value();
    out.push_back(Fixture{"line_graph", std::move(policy), std::move(data),
                          {"cell_histogram", "quadtree"}});
  }
  auto grid =
      std::make_shared<const Domain>(Domain::Grid(8, 2).value());
  Dataset grid_data = MakeData(grid, 300, 17);
  {
    auto part = PartitionGraph::UniformGrid(grid, {2, 2}).value();
    Policy policy =
        Policy::Create(grid,
                       std::shared_ptr<const SecretGraph>(part.release()))
            .value();
    out.push_back(Fixture{"grid_unconstrained", std::move(policy), grid_data,
                          kGridRefusals});
  }
  {
    auto part = PartitionGraph::UniformGrid(grid, {2, 2}).value();
    ConstraintSet cs;
    CountQuery corner("corner", [grid](ValueIndex x) {
      return grid->Coordinate(x, 0) < 2 && grid->Coordinate(x, 1) < 2;
    });
    const uint64_t answer = corner.Evaluate(grid_data);
    cs.AddWithAnswer(std::move(corner), answer);
    Policy policy =
        Policy::Create(grid,
                       std::shared_ptr<const SecretGraph>(part.release()),
                       std::move(cs))
            .value();
    out.push_back(Fixture{"grid_constrained", std::move(policy),
                          std::move(grid_data), kGridRefusals});
  }
  return out;
}

std::unique_ptr<ReleaseEngine> MakeEngine(const Policy& policy,
                                          const Dataset& data,
                                          std::shared_ptr<ThreadPool> pool,
                                          obs::MetricsRegistry* metrics) {
  ReleaseEngineOptions options;
  options.root_seed = kSeed;
  options.default_session_budget = 10.0;
  options.pool = std::move(pool);
  options.metrics = metrics;
  auto engine = ReleaseEngine::Create(policy, data, options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(*engine);
}

void ExpectByteIdentical(const std::vector<QueryResponse>& got,
                         const std::vector<QueryResponse>& want,
                         const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    const std::string at = context + ", query " + std::to_string(i) +
                           " (" + want[i].label + ")";
    EXPECT_EQ(got[i].status.code(), want[i].status.code()) << at;
    EXPECT_EQ(got[i].status.message(), want[i].status.message()) << at;
    EXPECT_EQ(got[i].label, want[i].label) << at;
    // operator== on doubles: bit-exact payloads, not approximate ones.
    EXPECT_EQ(got[i].values, want[i].values) << at;
    EXPECT_EQ(got[i].sensitivity, want[i].sensitivity) << at;
    EXPECT_EQ(got[i].cache_hit, want[i].cache_hit) << at;
    EXPECT_EQ(got[i].receipt.session, want[i].receipt.session) << at;
    EXPECT_EQ(got[i].receipt.charge_id, want[i].receipt.charge_id) << at;
    EXPECT_EQ(got[i].receipt.charged, want[i].receipt.charged) << at;
    EXPECT_EQ(got[i].receipt.epsilon, want[i].receipt.epsilon) << at;
    EXPECT_EQ(got[i].receipt.remaining, want[i].receipt.remaining) << at;
  }
}

TEST(MemoIdentityTest, AllOpsMatchRecomputedReferenceAcrossPoolsAndBatches) {
  constexpr int kBatches = 3;
  for (const Fixture& f : Fixtures()) {
    SCOPED_TRACE("fixture " + f.name);
    // The pool-0 transcript, batch by batch; larger pools must match it.
    std::vector<std::vector<QueryResponse>> first_pool;
    double first_pool_spent = 0.0;
    for (size_t pool_size : {size_t{0}, size_t{1}, size_t{8}}) {
      const std::string pool = "pool " + std::to_string(pool_size);
      obs::MetricsRegistry metrics;
      auto engine = MakeEngine(f.policy, f.data,
                               std::make_shared<ThreadPool>(pool_size),
                               &metrics);
      uint64_t stream_id = 0;
      for (int batch = 0; batch < kBatches; ++batch) {
        const std::string context =
            pool + ", batch " + std::to_string(batch);
        const std::vector<QueryRequest> requests = WholeRegistryBatch();
        const std::vector<QueryResponse> responses =
            engine->ServeBatch(requests);
        ASSERT_EQ(responses.size(), requests.size()) << context;
        for (size_t i = 0; i < responses.size(); ++i) {
          const std::string at = context + ", " + responses[i].label;
          const bool expect_refusal =
              std::find(f.expected_refusals.begin(),
                        f.expected_refusals.end(),
                        responses[i].label) != f.expected_refusals.end();
          if (expect_refusal) {
            // Refused at admission: never charged, never given a stream.
            EXPECT_FALSE(responses[i].status.ok()) << at;
            EXPECT_EQ(responses[i].receipt.charge_id, 0u) << at;
            continue;
          }
          ASSERT_TRUE(responses[i].status.ok())
              << at << ": " << responses[i].status.ToString();
          // The reference: recount h(D) from the rows and run the op on
          // the stream the engine assigned in admission order.
          const Histogram hist = f.data.CompleteHistogram().value();
          const QueryExecContext ctx{f.policy, f.data, hist,
                                     requests[i].epsilon,
                                     responses[i].sensitivity};
          auto want = requests[i].op->Execute(
              ctx, Random(kSeed).Fork(stream_id++));
          ASSERT_TRUE(want.ok()) << at << ": " << want.status().ToString();
          EXPECT_EQ(responses[i].values, *want) << at;
        }
        if (pool_size == 0) {
          first_pool.push_back(responses);
        } else {
          ExpectByteIdentical(responses, first_pool[batch], context);
        }
      }
      // Identical receipts and identical ledger: the budget arithmetic
      // is exactly reproduced, not merely the payloads.
      const double spent = engine->accountant().Spent("");
      EXPECT_GT(spent, 0.0) << pool;
      if (pool_size == 0) {
        first_pool_spent = spent;
      } else {
        EXPECT_EQ(spent, first_pool_spent) << pool;
      }
      // The memo: three batches of histogram consumers, one count.
      EXPECT_EQ(metrics.GetCounter("engine_scans_total")->Value(), 1u)
          << pool;
    }
  }
}

}  // namespace
}  // namespace blowfish
