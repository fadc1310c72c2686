// Discriminative secret graphs (Sec 3.1 of the paper).
//
// A policy's sensitive-information component is a graph G = (V, E) with
// V = T: an edge (x, y) means an adversary must not distinguish whether any
// individual's tuple is x or y. The paper's named instances:
//
//   * G^full  — complete graph: differential privacy's secrets (Eqn 4).
//   * G^attr  — edge iff exactly one attribute differs (Eqn 5).
//   * G^P     — partitioned: complete graph within each cell of a domain
//               partition P, no edges across cells (Eqn 6).
//   * G^{d,theta} — edge iff d(x, y) <= theta for a metric d (Eqn 7);
//               the line graph is the 1-D case with theta = 1 (Sec 7.1).
//
// Large domains never materialize the graph: each subclass answers
// adjacency, graph distance d_G (Eqn 9), and bounded edge enumeration
// directly from domain structure. ExplicitGraph (adjacency lists + BFS)
// covers arbitrary policies and serves as the oracle in tests.

#ifndef BLOWFISH_CORE_SECRET_GRAPH_H_
#define BLOWFISH_CORE_SECRET_GRAPH_H_

#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/domain.h"
#include "util/status.h"

namespace blowfish {

/// Distance value for disconnected pairs.
inline constexpr double kInfiniteDistance =
    std::numeric_limits<double>::infinity();

/// Interface for discriminative secret graphs over a domain.
class SecretGraph {
 public:
  virtual ~SecretGraph() = default;

  /// Number of vertices |V| = |T|.
  virtual uint64_t num_vertices() const = 0;

  /// True iff (x, y) is an edge (a discriminative pair). Irreflexive.
  virtual bool Adjacent(ValueIndex x, ValueIndex y) const = 0;

  /// Graph distance d_G(x, y): length of the shortest path, 0 if x == y,
  /// kInfiniteDistance if disconnected. Controls the privacy ratio between
  /// non-adjacent values: Pr[M(D1) in S] <= e^{eps d_G(x,y)} Pr[M(D2) in S]
  /// (Eqn 9).
  virtual double Distance(ValueIndex x, ValueIndex y) const = 0;

  /// Invokes `fn(x, y)` for every edge with x < y, stopping with
  /// ResourceExhausted once more than `max_edges` edges were visited.
  /// Structured graphs may be enumerable even when huge would be; callers
  /// that only need an extreme over edges should prefer the closed forms in
  /// core/sensitivity.h.
  virtual Status ForEachEdge(
      const std::function<void(ValueIndex, ValueIndex)>& fn,
      uint64_t max_edges) const = 0;

  /// Short human-readable description ("full", "attr", "L1,theta=128", ...).
  virtual std::string name() const = 0;
};

/// G^full: the complete graph; Blowfish with this graph and no constraints
/// is exactly eps-differential privacy (Sec 4.2).
class FullGraph final : public SecretGraph {
 public:
  explicit FullGraph(uint64_t num_vertices) : n_(num_vertices) {}

  uint64_t num_vertices() const override { return n_; }
  bool Adjacent(ValueIndex x, ValueIndex y) const override {
    return x != y && x < n_ && y < n_;
  }
  double Distance(ValueIndex x, ValueIndex y) const override {
    return x == y ? 0.0 : 1.0;
  }
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override { return "full"; }

 private:
  uint64_t n_;
};

/// G^attr: edge iff the two values differ in exactly one attribute.
/// d_G = Hamming distance over coordinates.
class AttributeGraph final : public SecretGraph {
 public:
  explicit AttributeGraph(std::shared_ptr<const Domain> domain)
      : domain_(std::move(domain)) {}

  uint64_t num_vertices() const override { return domain_->size(); }
  bool Adjacent(ValueIndex x, ValueIndex y) const override {
    return domain_->HammingDistance(x, y) == 1;
  }
  double Distance(ValueIndex x, ValueIndex y) const override {
    return static_cast<double>(domain_->HammingDistance(x, y));
  }
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override { return "attr"; }

  const Domain& domain() const { return *domain_; }

 private:
  std::shared_ptr<const Domain> domain_;
};

/// G^P: complete graph within each cell of a partition of T, no edges
/// across cells. d_G is 1 within a cell and infinite across cells — an
/// adversary may learn the cell, never the value inside it.
class PartitionGraph final : public SecretGraph {
 public:
  /// `cell_of` maps every value to its partition cell id. Cells need not be
  /// contiguous ranges.
  PartitionGraph(uint64_t num_vertices,
                 std::function<uint64_t(ValueIndex)> cell_of,
                 std::string label = "partition")
      : n_(num_vertices), cell_of_(std::move(cell_of)),
        label_(std::move(label)) {}

  /// Partition of a grid domain into a coarser uniform grid with
  /// `cells_per_axis[i]` cells along attribute i (the partition|k policies
  /// of Fig 1(f)).
  static StatusOr<std::unique_ptr<PartitionGraph>> UniformGrid(
      std::shared_ptr<const Domain> domain,
      std::vector<uint64_t> cells_per_axis);

  uint64_t num_vertices() const override { return n_; }
  bool Adjacent(ValueIndex x, ValueIndex y) const override {
    return x != y && cell_of_(x) == cell_of_(y);
  }
  double Distance(ValueIndex x, ValueIndex y) const override {
    if (x == y) return 0.0;
    return cell_of_(x) == cell_of_(y) ? 1.0 : kInfiniteDistance;
  }
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override { return label_; }

  uint64_t CellOf(ValueIndex x) const { return cell_of_(x); }

  /// A read-only run of domain values, in ascending order.
  struct ValueRun {
    const ValueIndex* first = nullptr;
    const ValueIndex* last = nullptr;
    const ValueIndex* begin() const { return first; }
    const ValueIndex* end() const { return last; }
    size_t size() const { return static_cast<size_t>(last - first); }
    bool empty() const { return first == last; }
  };

  /// The domain values in `cell`, in domain order; empty for an id no
  /// value maps to. Served from an immutable cell -> members index that
  /// the first call builds with one pass over the domain (once per graph,
  /// safe when several threads race to it), so later calls cost
  /// O(log #cells), not O(|T|). The index holds one ValueIndex per domain
  /// value.
  ValueRun Members(uint64_t cell) const;

  /// Optional structural hint: the largest L1 distance across any edge
  /// (i.e. the max cell diameter). Set by UniformGrid; used by the q_sum
  /// closed form (Lemma 6.1) to avoid edge enumeration.
  void set_max_edge_l1(double v) { max_edge_l1_ = v; }
  std::optional<double> max_edge_l1() const { return max_edge_l1_; }

  /// Structural hint for UniformGrid partitions: the per-axis contiguous
  /// block width (cells start at multiples of the block width from level
  /// 0). Empty for non-uniform partitions. Lets mechanisms align their
  /// own decompositions with the policy (e.g. the quadtree's exact
  /// levels).
  void set_uniform_blocks(std::vector<uint64_t> blocks) {
    uniform_blocks_ = std::move(blocks);
  }
  const std::vector<uint64_t>& uniform_blocks() const {
    return uniform_blocks_;
  }

 private:
  uint64_t n_;
  std::function<uint64_t(ValueIndex)> cell_of_;
  std::string label_;
  std::optional<double> max_edge_l1_;
  std::vector<uint64_t> uniform_blocks_;

  /// Cell -> members in CSR form: cell ids_[k]'s members are
  /// members_[offsets_[k] .. offsets_[k + 1]), in domain order.
  struct CellIndex {
    std::vector<uint64_t> ids;  // distinct cell ids, ascending
    std::vector<size_t> offsets;
    std::vector<ValueIndex> members;
  };
  /// Builds the index on first use; immutable afterwards.
  const CellIndex& Index() const;

  mutable std::once_flag index_once_;
  mutable CellIndex index_;
};

/// G^{d,theta} under the scaled L1 metric of the domain: edge iff
/// 0 < d(x, y) <= theta. On a cross-product domain the L1 ball is
/// "convex" (any distance can be covered in steps of at most theta along
/// coordinates), so d_G(x, y) = ceil(d(x, y) / theta).
class DistanceThresholdGraph final : public SecretGraph {
 public:
  static StatusOr<std::unique_ptr<DistanceThresholdGraph>> Create(
      std::shared_ptr<const Domain> domain, double theta);

  uint64_t num_vertices() const override { return domain_->size(); }
  bool Adjacent(ValueIndex x, ValueIndex y) const override {
    if (x == y) return false;
    return domain_->L1Distance(x, y) <= theta_;
  }
  double Distance(ValueIndex x, ValueIndex y) const override;
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override;

  double theta() const { return theta_; }
  const Domain& domain() const { return *domain_; }

 private:
  DistanceThresholdGraph(std::shared_ptr<const Domain> domain, double theta)
      : domain_(std::move(domain)), theta_(theta) {}

  std::shared_ptr<const Domain> domain_;
  double theta_;
};

/// Line graph over a 1-D ordered domain: edges between adjacent values
/// only (Sec 7.1). Equivalent to DistanceThresholdGraph(theta = scale) on a
/// line domain, provided as its own type for clarity and O(1) distance.
class LineGraph final : public SecretGraph {
 public:
  explicit LineGraph(uint64_t num_vertices) : n_(num_vertices) {}

  uint64_t num_vertices() const override { return n_; }
  bool Adjacent(ValueIndex x, ValueIndex y) const override {
    return (x < y ? y - x : x - y) == 1;
  }
  double Distance(ValueIndex x, ValueIndex y) const override {
    return static_cast<double>(x < y ? y - x : x - y);
  }
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override { return "line"; }

 private:
  uint64_t n_;
};

/// Arbitrary discriminative graph from explicit adjacency lists; distances
/// via BFS. The reference implementation for tests and small policies.
class ExplicitGraph final : public SecretGraph {
 public:
  static StatusOr<std::unique_ptr<ExplicitGraph>> Create(
      uint64_t num_vertices,
      const std::vector<std::pair<ValueIndex, ValueIndex>>& edges);

  uint64_t num_vertices() const override { return n_; }
  bool Adjacent(ValueIndex x, ValueIndex y) const override;
  double Distance(ValueIndex x, ValueIndex y) const override;
  Status ForEachEdge(const std::function<void(ValueIndex, ValueIndex)>& fn,
                     uint64_t max_edges) const override;
  std::string name() const override { return "explicit"; }

  const std::vector<ValueIndex>& Neighbors(ValueIndex x) const {
    return adj_[x];
  }

 private:
  ExplicitGraph(uint64_t n, std::vector<std::vector<ValueIndex>> adj)
      : n_(n), adj_(std::move(adj)) {}

  uint64_t n_;
  std::vector<std::vector<ValueIndex>> adj_;
};

/// Materializes any secret graph into an ExplicitGraph (small domains only;
/// enumerates at most `max_edges` edges). Used to cross-check the implicit
/// implementations.
StatusOr<std::unique_ptr<ExplicitGraph>> Materialize(const SecretGraph& graph,
                                                     uint64_t max_edges);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_SECRET_GRAPH_H_
