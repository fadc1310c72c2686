#include "core/secret_graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <deque>

namespace blowfish {

namespace {

/// Shared edge-budget bookkeeping for ForEachEdge implementations.
class EdgeBudget {
 public:
  explicit EdgeBudget(uint64_t max_edges) : remaining_(max_edges) {}

  /// Returns false once the budget is exhausted.
  bool Consume() {
    if (remaining_ == 0) return false;
    --remaining_;
    return true;
  }

  Status Exhausted() const {
    return Status::ResourceExhausted(
        "edge enumeration exceeded the max_edges budget");
  }

 private:
  uint64_t remaining_;
};

}  // namespace

// ---------------------------------------------------------------------------
// FullGraph

Status FullGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  for (ValueIndex x = 0; x < n_; ++x) {
    for (ValueIndex y = x + 1; y < n_; ++y) {
      if (!budget.Consume()) return budget.Exhausted();
      fn(x, y);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// AttributeGraph

Status AttributeGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  const Domain& dom = *domain_;
  for (ValueIndex x = 0; x < dom.size(); ++x) {
    for (size_t attr = 0; attr < dom.num_attributes(); ++attr) {
      uint64_t level = dom.Coordinate(x, attr);
      // Emit each edge once: only neighbours with a larger level on this
      // attribute (hence a larger index, as strides are positive).
      for (uint64_t next = level + 1;
           next < dom.attribute(attr).cardinality; ++next) {
        if (!budget.Consume()) return budget.Exhausted();
        fn(x, dom.WithCoordinate(x, attr, next));
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// PartitionGraph

StatusOr<std::unique_ptr<PartitionGraph>> PartitionGraph::UniformGrid(
    std::shared_ptr<const Domain> domain,
    std::vector<uint64_t> cells_per_axis) {
  if (cells_per_axis.size() != domain->num_attributes()) {
    return Status::InvalidArgument(
        "cells_per_axis arity does not match the domain");
  }
  uint64_t total_cells = 1;
  for (size_t i = 0; i < cells_per_axis.size(); ++i) {
    if (cells_per_axis[i] == 0 ||
        cells_per_axis[i] > domain->attribute(i).cardinality) {
      return Status::InvalidArgument(
          "cells_per_axis must be in [1, attribute cardinality]");
    }
    total_cells *= cells_per_axis[i];
  }
  // Axis i is split into cells_per_axis[i] near-equal contiguous blocks of
  // width block_i = ceil(card_i / cells_i); the max cell diameter is
  // sum_i scale_i * (block_i - 1) — the q_sum closed form's 2 d(P) hint.
  double max_cell_diameter = 0.0;
  std::vector<uint64_t> blocks(cells_per_axis.size());
  for (size_t i = 0; i < cells_per_axis.size(); ++i) {
    uint64_t card = domain->attribute(i).cardinality;
    uint64_t block = (card + cells_per_axis[i] - 1) / cells_per_axis[i];
    blocks[i] = block;
    max_cell_diameter +=
        domain->attribute(i).scale * static_cast<double>(block - 1);
  }
  auto cell_of = [domain, cells = std::move(cells_per_axis)](ValueIndex x) {
    uint64_t cell = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
      uint64_t card = domain->attribute(i).cardinality;
      uint64_t block = (card + cells[i] - 1) / cells[i];
      cell = cell * cells[i] + domain->Coordinate(x, i) / block;
    }
    return cell;
  };
  std::string label = "partition|" + std::to_string(total_cells);
  auto graph = std::make_unique<PartitionGraph>(
      domain->size(), std::move(cell_of), std::move(label));
  graph->set_max_edge_l1(max_cell_diameter);
  graph->set_uniform_blocks(std::move(blocks));
  return graph;
}

const PartitionGraph::CellIndex& PartitionGraph::Index() const {
  std::call_once(index_once_, [this] {
    // Sorting (cell, value) pairs groups the values by cell and keeps
    // each cell's values in domain order.
    std::vector<std::pair<uint64_t, ValueIndex>> by_cell(n_);
    for (ValueIndex x = 0; x < n_; ++x) by_cell[x] = {cell_of_(x), x};
    std::sort(by_cell.begin(), by_cell.end());
    index_.members.reserve(n_);
    for (const auto& [cell, x] : by_cell) {
      if (index_.ids.empty() || index_.ids.back() != cell) {
        index_.ids.push_back(cell);
        index_.offsets.push_back(index_.members.size());
      }
      index_.members.push_back(x);
    }
    index_.offsets.push_back(index_.members.size());
  });
  return index_;
}

PartitionGraph::ValueRun PartitionGraph::Members(uint64_t cell) const {
  const CellIndex& index = Index();
  auto it = std::lower_bound(index.ids.begin(), index.ids.end(), cell);
  if (it == index.ids.end() || *it != cell) return ValueRun{};
  const size_t k = static_cast<size_t>(it - index.ids.begin());
  const ValueIndex* base = index.members.data();
  return ValueRun{base + index.offsets[k], base + index.offsets[k + 1]};
}

Status PartitionGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  const CellIndex& index = Index();
  for (size_t k = 0; k + 1 < index.offsets.size(); ++k) {
    const ValueIndex* members = index.members.data() + index.offsets[k];
    const size_t size = index.offsets[k + 1] - index.offsets[k];
    for (size_t i = 0; i < size; ++i) {
      for (size_t j = i + 1; j < size; ++j) {
        if (!budget.Consume()) return budget.Exhausted();
        fn(members[i], members[j]);
      }
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DistanceThresholdGraph

StatusOr<std::unique_ptr<DistanceThresholdGraph>>
DistanceThresholdGraph::Create(std::shared_ptr<const Domain> domain,
                               double theta) {
  if (!(theta > 0.0)) {
    return Status::InvalidArgument("theta must be positive");
  }
  return std::unique_ptr<DistanceThresholdGraph>(
      new DistanceThresholdGraph(std::move(domain), theta));
}

double DistanceThresholdGraph::Distance(ValueIndex x, ValueIndex y) const {
  if (x == y) return 0.0;
  const Domain& dom = *domain_;

  // Decompose x -> y into unit coordinate moves; each move along attribute
  // i costs scale_i of L1 distance, and a single graph edge packs unit
  // moves with total cost <= theta. d_G is thus the minimum number of
  // capacity-theta bins covering the multiset of unit-move costs.
  bool uniform_scale = true;
  double scale0 = dom.attribute(0).scale;
  uint64_t total_units = 0;
  std::vector<std::pair<double, uint64_t>> move_groups;  // (cost, count)
  for (size_t i = 0; i < dom.num_attributes(); ++i) {
    int64_t cx = static_cast<int64_t>(dom.Coordinate(x, i));
    int64_t cy = static_cast<int64_t>(dom.Coordinate(y, i));
    uint64_t units = static_cast<uint64_t>(std::llabs(cx - cy));
    double scale = dom.attribute(i).scale;
    if (units == 0) continue;
    if (scale > theta_) return kInfiniteDistance;  // no edge can move axis i
    if (scale != scale0) uniform_scale = false;
    total_units += units;
    move_groups.emplace_back(scale, units);
  }
  if (total_units == 0) return 0.0;

  if (uniform_scale) {
    // Exact: each edge fits floor(theta / scale) unit moves.
    uint64_t per_step = static_cast<uint64_t>(theta_ / scale0);
    assert(per_step >= 1);
    return static_cast<double>((total_units + per_step - 1) / per_step);
  }

  // Mixed scales: first-fit-decreasing over the grouped unit moves. This
  // is an upper bound on d_G (any packing is a valid path), which is the
  // safe direction for the privacy-loss statement of Eqn 9.
  std::sort(move_groups.begin(), move_groups.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<double> bins;
  for (const auto& [cost, count] : move_groups) {
    for (uint64_t u = 0; u < count; ++u) {
      bool placed = false;
      for (double& load : bins) {
        if (load + cost <= theta_) {
          load += cost;
          placed = true;
          break;
        }
      }
      if (!placed) bins.push_back(cost);
    }
  }
  return static_cast<double>(bins.size());
}

namespace {

/// Recursively enumerates all coordinate offsets within L1 budget `theta`
/// around `x`, invoking fn for each strictly-greater neighbour index.
Status EnumerateBall(const Domain& dom, ValueIndex x, size_t attr,
                     ValueIndex partial, double remaining, bool any_change,
                     EdgeBudget& budget,
                     const std::function<void(ValueIndex, ValueIndex)>& fn) {
  if (attr == dom.num_attributes()) {
    if (any_change && partial > x) {
      if (!budget.Consume()) return budget.Exhausted();
      fn(x, partial);
    }
    return Status::OK();
  }
  uint64_t level = dom.Coordinate(x, attr);
  double scale = dom.attribute(attr).scale;
  uint64_t card = dom.attribute(attr).cardinality;
  uint64_t max_delta = static_cast<uint64_t>(remaining / scale);
  int64_t lo = static_cast<int64_t>(level) - static_cast<int64_t>(max_delta);
  int64_t hi = static_cast<int64_t>(level) + static_cast<int64_t>(max_delta);
  if (lo < 0) lo = 0;
  if (hi >= static_cast<int64_t>(card)) hi = static_cast<int64_t>(card) - 1;
  for (int64_t next = lo; next <= hi; ++next) {
    double cost =
        scale * static_cast<double>(std::llabs(next -
                                               static_cast<int64_t>(level)));
    BLOWFISH_RETURN_IF_ERROR(EnumerateBall(
        dom, x, attr + 1,
        dom.WithCoordinate(partial, attr, static_cast<uint64_t>(next)),
        remaining - cost, any_change || next != static_cast<int64_t>(level),
        budget, fn));
  }
  return Status::OK();
}

}  // namespace

Status DistanceThresholdGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  for (ValueIndex x = 0; x < domain_->size(); ++x) {
    BLOWFISH_RETURN_IF_ERROR(
        EnumerateBall(*domain_, x, 0, x, theta_, false, budget, fn));
  }
  return Status::OK();
}

std::string DistanceThresholdGraph::name() const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "L1,theta=%g", theta_);
  return buf;
}

// ---------------------------------------------------------------------------
// LineGraph

Status LineGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  for (ValueIndex x = 0; x + 1 < n_; ++x) {
    if (!budget.Consume()) return budget.Exhausted();
    fn(x, x + 1);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ExplicitGraph

StatusOr<std::unique_ptr<ExplicitGraph>> ExplicitGraph::Create(
    uint64_t num_vertices,
    const std::vector<std::pair<ValueIndex, ValueIndex>>& edges) {
  std::vector<std::vector<ValueIndex>> adj(num_vertices);
  for (const auto& [x, y] : edges) {
    if (x >= num_vertices || y >= num_vertices) {
      return Status::OutOfRange("edge endpoint outside the vertex range");
    }
    if (x == y) {
      return Status::InvalidArgument("self-loop edges are not allowed");
    }
    adj[x].push_back(y);
    adj[y].push_back(x);
  }
  for (auto& neighbors : adj) {
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
  }
  return std::unique_ptr<ExplicitGraph>(
      new ExplicitGraph(num_vertices, std::move(adj)));
}

bool ExplicitGraph::Adjacent(ValueIndex x, ValueIndex y) const {
  if (x >= n_ || y >= n_ || x == y) return false;
  const auto& nbrs = adj_[x];
  return std::binary_search(nbrs.begin(), nbrs.end(), y);
}

double ExplicitGraph::Distance(ValueIndex x, ValueIndex y) const {
  assert(x < n_ && y < n_);
  if (x == y) return 0.0;
  // Plain BFS; the explicit graph is only used for small domains.
  std::vector<uint64_t> dist(n_, UINT64_MAX);
  std::deque<ValueIndex> queue;
  dist[x] = 0;
  queue.push_back(x);
  while (!queue.empty()) {
    ValueIndex u = queue.front();
    queue.pop_front();
    if (u == y) return static_cast<double>(dist[u]);
    for (ValueIndex v : adj_[u]) {
      if (dist[v] == UINT64_MAX) {
        dist[v] = dist[u] + 1;
        queue.push_back(v);
      }
    }
  }
  return kInfiniteDistance;
}

Status ExplicitGraph::ForEachEdge(
    const std::function<void(ValueIndex, ValueIndex)>& fn,
    uint64_t max_edges) const {
  EdgeBudget budget(max_edges);
  for (ValueIndex x = 0; x < n_; ++x) {
    for (ValueIndex y : adj_[x]) {
      if (y <= x) continue;
      if (!budget.Consume()) return budget.Exhausted();
      fn(x, y);
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<ExplicitGraph>> Materialize(const SecretGraph& graph,
                                                     uint64_t max_edges) {
  std::vector<std::pair<ValueIndex, ValueIndex>> edges;
  BLOWFISH_RETURN_IF_ERROR(graph.ForEachEdge(
      [&edges](ValueIndex x, ValueIndex y) { edges.emplace_back(x, y); },
      max_edges));
  return ExplicitGraph::Create(graph.num_vertices(), edges);
}

}  // namespace blowfish
