#include "core/sensitivity.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/policy_graph.h"

namespace blowfish {

double LinearQuery::EdgeNorm(ValueIndex x, ValueIndex y) const {
  if (x == y) return 0.0;
  // Combine the two sparse columns row-wise and take the L1 norm of the
  // difference.
  std::unordered_map<size_t, double> diff;
  ForEachColumnEntry(x, [&diff](size_t row, double v) { diff[row] += v; });
  ForEachColumnEntry(y, [&diff](size_t row, double v) { diff[row] -= v; });
  double norm = 0.0;
  for (const auto& [row, v] : diff) {
    (void)row;
    norm += std::fabs(v);
  }
  return norm;
}

std::vector<double> LinearQuery::Evaluate(const Histogram& h) const {
  std::vector<double> out(output_dim(), 0.0);
  for (size_t x = 0; x < h.size(); ++x) {
    double count = h[x];
    if (count == 0.0) continue;
    ForEachColumnEntry(static_cast<ValueIndex>(x),
                       [&out, count](size_t row, double v) {
                         out[row] += v * count;
                       });
  }
  return out;
}

double LinearQuery::ScalarValue(ValueIndex x) const {
  double v = 0.0;
  ForEachColumnEntry(x, [&v](size_t, double w) { v += w; });
  return v;
}

double ValueWeightedSumQuery::EdgeNorm(ValueIndex x, ValueIndex y) const {
  if (x == y) return 0.0;
  return std::fabs(value_(x) - value_(y));
}

StatusOr<double> UnconstrainedSensitivity(const LinearQuery& query,
                                          const SecretGraph& graph,
                                          uint64_t max_edges) {
  double sensitivity = 0.0;
  BLOWFISH_RETURN_IF_ERROR(graph.ForEachEdge(
      [&query, &sensitivity](ValueIndex x, ValueIndex y) {
        sensitivity = std::max(sensitivity, query.EdgeNorm(x, y));
      },
      max_edges));
  return sensitivity;
}

namespace {

/// True iff the graph has at least one edge (probes the enumeration with a
/// one-edge budget; a ResourceExhausted reply also proves an edge exists).
bool HasAnyEdge(const SecretGraph& graph) {
  bool found = false;
  Status st = graph.ForEachEdge(
      [&found](ValueIndex, ValueIndex) { found = true; }, 1);
  return found || !st.ok();
}

}  // namespace

double HistogramSensitivity(const SecretGraph& graph) {
  return HasAnyEdge(graph) ? 2.0 : 0.0;
}

StatusOr<double> CumulativeHistogramSensitivity(const Policy& policy) {
  if (policy.domain().num_attributes() != 1) {
    return Status::InvalidArgument(
        "cumulative histograms require a 1-D ordered domain");
  }
  const SecretGraph& g = policy.graph();
  const uint64_t n = policy.domain().size();
  const double scale = policy.domain().attribute(0).scale;

  if (dynamic_cast<const LineGraph*>(&g) != nullptr) {
    return n >= 2 ? 1.0 : 0.0;
  }
  if (auto* full = dynamic_cast<const FullGraph*>(&g)) {
    (void)full;
    return n >= 2 ? static_cast<double>(n - 1) : 0.0;
  }
  if (auto* thresh = dynamic_cast<const DistanceThresholdGraph*>(&g)) {
    // Farthest adjacent pair is floor(theta / scale) indices apart.
    double steps = std::floor(thresh->theta() / scale);
    steps = std::min(steps, static_cast<double>(n - 1));
    return steps;  // 0 when theta < scale: the graph has no edges
  }
  // Generic fallback: exact max over enumerated edges.
  CumulativeHistogramQuery query(n);
  return UnconstrainedSensitivity(query, g, uint64_t{1} << 26);
}

StatusOr<double> QSumSensitivity(const Policy& policy) {
  const SecretGraph& g = policy.graph();
  const Domain& dom = policy.domain();

  // All closed forms are instances of the one rule (Lemma 6.1): the
  // sensitivity is 2 * (max L1 distance across any edge of G).
  if (dynamic_cast<const FullGraph*>(&g) != nullptr) {
    return 2.0 * dom.Diameter();
  }
  if (dynamic_cast<const AttributeGraph*>(&g) != nullptr) {
    double max_attr = 0.0;
    for (const Attribute& a : dom.attributes()) {
      max_attr = std::max(
          max_attr, a.scale * static_cast<double>(a.cardinality - 1));
    }
    return 2.0 * max_attr;
  }
  if (auto* thresh = dynamic_cast<const DistanceThresholdGraph*>(&g)) {
    return 2.0 * std::min(thresh->theta(), dom.Diameter());
  }
  if (auto* part = dynamic_cast<const PartitionGraph*>(&g)) {
    if (part->max_edge_l1().has_value()) {
      return 2.0 * *part->max_edge_l1();
    }
  }
  // Generic fallback: enumerate edges and take the max L1 distance.
  double max_dist = 0.0;
  BLOWFISH_RETURN_IF_ERROR(g.ForEachEdge(
      [&dom, &max_dist](ValueIndex x, ValueIndex y) {
        max_dist = std::max(max_dist, dom.L1Distance(x, y));
      },
      uint64_t{1} << 26));
  return 2.0 * max_dist;
}

double QSizeSensitivity(const SecretGraph& graph) {
  return HasAnyEdge(graph) ? 2.0 : 0.0;
}

CellRestrictedHistogramQuery::CellRestrictedHistogramQuery(
    const PartitionGraph& partition, const std::set<uint64_t>& cells) {
  for (uint64_t cell : cells) {
    const PartitionGraph::ValueRun members = partition.Members(cell);
    included_.insert(included_.end(), members.begin(), members.end());
  }
  // Each cell's run is in domain order; cells interleave in the domain.
  std::sort(included_.begin(), included_.end());
}

std::vector<double> CellRestrictedHistogramQuery::Evaluate(
    const Histogram& h) const {
  std::vector<double> out;
  out.reserve(included_.size());
  for (ValueIndex x : included_) out.push_back(h[x]);
  return out;
}

StatusOr<double> ConstrainedLinearQuerySensitivity(
    const LinearQuery& query, const Policy& policy, uint64_t max_edges,
    uint64_t max_pairs, size_t max_policy_graph_vertices) {
  // Unpinned-only sets restrict nothing — same neighbours, same value
  // as the unconstrained edge maximum, without the O(|T|^2) pair
  // enumeration (or its ResourceExhausted guard on large domains).
  if (!policy.has_constraints() || !policy.constraints().AnyPinned()) {
    return UnconstrainedSensitivity(query, policy.graph(), max_edges);
  }
  // Scalar queries: signed per-move deltas, one search per sign (see the
  // header). Strictly tighter than the magnitude bound whenever a
  // chain's compensating moves cancel part of its net value change.
  if (query.output_dim() == 1) {
    double best = 0.0;
    for (double sign : {1.0, -1.0}) {
      BLOWFISH_ASSIGN_OR_RETURN(
          WeightedPolicyGraph wpg,
          WeightedPolicyGraph::Build(
              policy.constraints(), policy.graph(), policy.domain().size(),
              [&query, sign](ValueIndex x, ValueIndex y) {
                return sign * (query.ScalarValue(y) - query.ScalarValue(x));
              },
              max_pairs));
      BLOWFISH_ASSIGN_OR_RETURN(double bound,
                                wpg.NeighborStepBound(
                                    max_policy_graph_vertices));
      best = std::max(best, bound);
    }
    return best;
  }
  BLOWFISH_ASSIGN_OR_RETURN(
      WeightedPolicyGraph wpg,
      WeightedPolicyGraph::Build(
          policy.constraints(), policy.graph(), policy.domain().size(),
          [&query](ValueIndex x, ValueIndex y) {
            return query.EdgeNorm(x, y);
          },
          max_pairs));
  return wpg.NeighborStepBound(max_policy_graph_vertices);
}

StatusOr<double> ConstrainedCellHistogramSensitivity(
    const Policy& policy, const std::vector<uint64_t>& cells,
    uint64_t max_edges, uint64_t max_pairs,
    size_t max_policy_graph_vertices) {
  const auto* partition =
      dynamic_cast<const PartitionGraph*>(&policy.graph());
  if (partition == nullptr) {
    return Status::FailedPrecondition(
        "per-cell sensitivity requires a partition (G^P) secret graph");
  }
  if (!policy.has_constraints() || !policy.constraints().AnyPinned()) {
    // Closed form (see the header): the unconstrained edge maximum.
    for (uint64_t cell : cells) {
      if (partition->Members(cell).size() >= 2) return 2.0;
    }
    return 0.0;
  }
  const std::set<uint64_t> cell_set(cells.begin(), cells.end());
  CellRestrictedHistogramQuery query(*partition, cell_set);
  return ConstrainedLinearQuerySensitivity(query, policy, max_edges,
                                           max_pairs,
                                           max_policy_graph_vertices);
}

std::vector<uint64_t> SortedUnionCells(
    const std::vector<std::vector<uint64_t>>& member_cells) {
  std::vector<uint64_t> union_cells;
  for (const std::vector<uint64_t>& cells : member_cells) {
    union_cells.insert(union_cells.end(), cells.begin(), cells.end());
  }
  std::sort(union_cells.begin(), union_cells.end());
  return union_cells;
}

}  // namespace blowfish
