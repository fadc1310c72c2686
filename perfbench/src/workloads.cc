// The named workloads. Everything random — tuples, tenant seeds,
// popularity picks, rectangles, ranges, epsilons — derives from the run's
// --seed; the policies' structure is fixed per workload so that set-up cost
// (cold sensitivity bounds) does not vary with the seed. Both run closed
// loop.
//
//   analyst_mix        closed loop, 8 batches in flight over 4 tenants picked
//                      by Zipf(1.0) popularity; 8-query batches mixing
//                      vector kinds (histogram, cdf) with scalar ones. Wire
//                      codec and Laplace noise do most of the work.
//   spatial_quadtree   closed loop, 2 connections at depth 2; 2 quadtree
//                      rectangle counts + 1 cell_histogram per batch on a
//                      256x256 grid under a 16x16 grid partition, 4M rows
//                      per tenant, audit log on. Whole-tree noising
//                      dominates serving; the data layer dominates set-up
//                      and memory.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

using blowfish::Attribute;
using blowfish::Domain;
using blowfish::Policy;
using blowfish::Random;
using blowfish::StatusOr;
using blowfish::ValueIndex;

// Epsilons are powers of two so that every budget sum is exact in double
// and the HEALTH gauge can be reconciled with the receipts bit for bit.
constexpr const char* kEpsText[] = {"0.125", "0.25", "0.5", "1"};

std::string Eps(Random& rng) {
  return std::string(" eps=") + kEpsText[rng.UniformInt(0, 3)];
}

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(
      Must(Domain::Create({Attribute{"v", size, 1.0}}), "line domain"));
}

/// A bump of the sum of two uniforms: skewed enough that counts differ
/// across the domain, cheap enough for millions of rows.
uint64_t Triangular(uint64_t size, Random& rng) {
  const auto hi = static_cast<int64_t>(size) - 1;
  return static_cast<uint64_t>((rng.UniformInt(0, hi) + rng.UniformInt(0, hi)) /
                               2);
}

std::vector<ValueIndex> LineTuples(uint64_t size, size_t n, Random& rng) {
  std::vector<ValueIndex> out(n);
  for (ValueIndex& t : out) t = Triangular(size, rng);
  return out;
}

std::vector<ValueIndex> GridTuples(const Domain& d, size_t n, Random& rng) {
  const ValueIndex sx = d.Encode({1, 0});
  const ValueIndex sy = d.Encode({0, 1});
  const uint64_t cx = d.attribute(0).cardinality;
  const uint64_t cy = d.attribute(1).cardinality;
  std::vector<ValueIndex> out(n);
  for (ValueIndex& t : out) {
    t = Triangular(cx, rng) * sx + Triangular(cy, rng) * sy;
  }
  return out;
}

TenantSpec MakeTenant(std::string policy_id, std::string dataset_id,
                      Policy policy, std::vector<ValueIndex> tuples,
                      uint64_t root_seed, size_t policy_group) {
  TenantSpec t{std::move(policy_id), std::move(dataset_id), std::move(policy),
               std::move(tuples), {}, {}, root_seed, policy_group};
  t.truth.assign(t.policy.domain().size(), 0.0);
  for (ValueIndex v : t.tuples) t.truth[v] += 1.0;
  return t;
}

/// Cell ids of a uniform grid partition, in PartitionGraph::UniformGrid's
/// numbering (row-major over the axes' blocks).
std::vector<uint64_t> UniformCells(const Domain& d,
                                   const std::vector<uint64_t>& per_axis) {
  std::vector<uint64_t> cell_of(d.size());
  for (ValueIndex x = 0; x < d.size(); ++x) {
    uint64_t cell = 0;
    for (size_t i = 0; i < per_axis.size(); ++i) {
      const uint64_t card = d.attribute(i).cardinality;
      const uint64_t block = (card + per_axis[i] - 1) / per_axis[i];
      cell = cell * per_axis[i] + d.Coordinate(x, i) / block;
    }
    cell_of[x] = cell;
  }
  return cell_of;
}

QuerySpec Query(std::string kind, std::string args, size_t expect) {
  QuerySpec q;
  q.line = kind + args;
  q.kind = std::move(kind);
  q.expect_values = expect;
  return q;
}

QuerySpec RangeLike(const char* kind, uint64_t size, Random& rng) {
  const auto lo = rng.UniformInt(0, static_cast<int64_t>(size) - 1);
  const auto hi = rng.UniformInt(lo, static_cast<int64_t>(size) - 1);
  return Query(kind,
               Eps(rng) + " lo=" + std::to_string(lo) +
                   " hi=" + std::to_string(hi),
               1);
}

QuerySpec CellHistogram(const TenantSpec& t,
                        const std::vector<uint64_t>& cells, Random& rng) {
  std::string list;
  for (uint64_t c : cells) {
    list += (list.empty() ? "" : ",") + std::to_string(c);
  }
  size_t values = 0;
  for (uint64_t c : t.cell_of) {
    values += std::count(cells.begin(), cells.end(), c);
  }
  QuerySpec q = Query("cell_histogram", Eps(rng) + " cells=" + list, values);
  q.cells = cells;
  return q;
}

BatchSpec Batch(size_t tenant, std::vector<QuerySpec> queries) {
  BatchSpec b;
  b.tenant = tenant;
  b.queries = std::move(queries);
  FinishBatch(&b);
  return b;
}

// ---- analyst_mix ------------------------------------------------------------

constexpr uint64_t kAnalystDomain = 2048;
const char* const kQuantileSets[] = {"0.5", "0.25,0.5,0.75",
                                     "0.1,0.5,0.9,0.99"};
constexpr size_t kQuantileCounts[] = {1, 3, 4};

QuerySpec AnalystScalar(int which, Random& rng) {
  switch (which) {
    case 0:
      return RangeLike("range", kAnalystDomain, rng);
    case 1: {
      const auto s = rng.UniformInt(0, 2);
      return Query("quantiles", Eps(rng) + " qs=" + kQuantileSets[s],
                   kQuantileCounts[s]);
    }
    case 2:
      return Query("mean", Eps(rng), 1);
    case 3:
      return RangeLike("hier_range", kAnalystDomain, rng);
    default:
      return RangeLike("wavelet_range", kAnalystDomain, rng);
  }
}

/// Zipf(1.0) over the tenants: weight 1/k for popularity rank k.
size_t ZipfPick(size_t n, Random& rng) {
  double total = 0.0;
  for (size_t k = 1; k <= n; ++k) total += 1.0 / static_cast<double>(k);
  double u = rng.Uniform() * total;
  for (size_t k = 1; k <= n; ++k) {
    u -= 1.0 / static_cast<double>(k);
    if (u < 0.0) return k - 1;
  }
  return n - 1;
}

BatchSpec AnalystNext(const Workload& w, Random& rng, size_t /*hint*/) {
  std::vector<QuerySpec> qs;
  for (int i = 0; i < 2; ++i) {
    qs.push_back(Query(rng.Bernoulli(0.5) ? "histogram" : "cdf", Eps(rng),
                       kAnalystDomain));
  }
  for (int i = 0; i < 6; ++i) {
    qs.push_back(AnalystScalar(static_cast<int>(rng.UniformInt(0, 4)), rng));
  }
  for (size_t i = qs.size() - 1; i > 0; --i) {
    std::swap(qs[i], qs[static_cast<size_t>(
                         rng.UniformInt(0, static_cast<int64_t>(i)))]);
  }
  return Batch(ZipfPick(w.tenants.size(), rng), std::move(qs));
}

Workload AnalystMix(uint64_t seed) {
  Workload w;
  w.name = "analyst_mix";
  w.in_flight = 8;
  w.next = AnalystNext;
  Random data(Random(seed).Fork(1));
  auto domain = LineDomain(kAnalystDomain);
  Policy line = Must(Policy::Line(domain), "line policy");
  Policy dist = Must(Policy::DistanceThreshold(domain, 4.0), "distance");
  // Popularity rank follows the tenant index; the graphs alternate so the
  // hot tenant and the cold tail both span both graphs.
  const char* ids[] = {"line2048", "dist2048", "line2048", "dist2048"};
  const char* datasets[] = {"a", "a", "b", "b"};
  for (size_t i = 0; i < 4; ++i) {
    w.tenants.push_back(MakeTenant(
        ids[i], datasets[i], i % 2 == 0 ? line : dist,
        LineTuples(kAnalystDomain, 1u << 20, data),
        blowfish::SplitMix64(seed ^ (0x100 + i)), i % 2));
  }
  Random rng(Random(seed).Fork(2));
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    std::vector<QuerySpec> qs = {
        Query("histogram", Eps(rng), kAnalystDomain),
        Query("cdf", Eps(rng), kAnalystDomain)};
    for (int k = 0; k < 5; ++k) qs.push_back(AnalystScalar(k, rng));
    w.warmup.push_back(Batch(i, std::move(qs)));
  }
  return w;
}

// ---- spatial_quadtree -------------------------------------------------------

constexpr uint64_t kGridSide = 256;
const std::vector<std::vector<uint64_t>> kSpatialCells = {
    {0}, {17}, {119, 120}, {255}};

QuerySpec QuadtreeQuery(Random& rng) {
  const auto side = static_cast<int64_t>(kGridSide) - 1;
  const auto x0 = rng.UniformInt(0, side);
  const auto x1 = rng.UniformInt(x0, side);
  const auto y0 = rng.UniformInt(0, side);
  const auto y1 = rng.UniformInt(y0, side);
  return Query("quadtree",
               Eps(rng) + " x0=" + std::to_string(x0) +
                   " x1=" + std::to_string(x1) + " y0=" + std::to_string(y0) +
                   " y1=" + std::to_string(y1),
               1);
}

BatchSpec SpatialNext(const Workload& w, Random& rng, size_t hint) {
  const size_t cells = static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(kSpatialCells.size()) - 1));
  std::vector<QuerySpec> qs = {QuadtreeQuery(rng), QuadtreeQuery(rng)};
  qs.push_back(CellHistogram(w.tenants[hint], kSpatialCells[cells], rng));
  return Batch(hint, std::move(qs));
}

Workload SpatialQuadtree(uint64_t seed) {
  Workload w;
  w.name = "spatial_quadtree";
  w.in_flight = 4;
  // The audit log rides here, so the audit layer is measured.
  w.audit = true;
  w.next = SpatialNext;
  Random data(Random(seed).Fork(1));
  auto domain = std::make_shared<const Domain>(Must(
      Domain::Create({Attribute{"x", kGridSide, 1.0},
                      Attribute{"y", kGridSide, 1.0}}),
      "grid domain"));
  Policy grid = Must(Policy::GridPartition(domain, {16, 16}), "grid policy");
  const std::vector<uint64_t> cell_of = UniformCells(*domain, {16, 16});
  for (size_t i = 0; i < 2; ++i) {
    w.tenants.push_back(MakeTenant(
        "grid256_p16", i == 0 ? "a" : "b", grid,
        GridTuples(*domain, 1u << 22, data),
        blowfish::SplitMix64(seed ^ (0x200 + i)), 0));
    w.tenants.back().cell_of = cell_of;
  }
  Random rng(Random(seed).Fork(2));
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    std::vector<QuerySpec> qs = {QuadtreeQuery(rng)};
    for (const auto& cells : kSpatialCells) {
      qs.push_back(CellHistogram(w.tenants[i], cells, rng));
    }
    w.warmup.push_back(Batch(i, std::move(qs)));
  }
  return w;
}

}  // namespace

void FinishBatch(BatchSpec* batch) {
  batch->text.clear();
  for (const QuerySpec& q : batch->queries) batch->text += q.line + "\n";
}

StatusOr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "analyst_mix") return AnalystMix(seed);
  if (name == "spatial_quadtree") return SpatialQuadtree(seed);
  return blowfish::Status::InvalidArgument(
      "unknown workload '" + name + "' (analyst_mix, spatial_quadtree)");
}

}  // namespace perfbench
