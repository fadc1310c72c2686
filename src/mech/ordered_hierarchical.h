// The Ordered Hierarchical (OH) mechanism (Sec 7.2, Fig 2(a)).
//
// A hybrid strategy for cumulative histograms and range queries under a
// G^{d,theta} policy on an ordered domain. The domain is cut into
// k = ceil(|T|/theta) blocks of theta values:
//
//   * S nodes s_1..s_k hold the prefix counts q[x_1, x_{l*theta}]. A tuple
//     change of distance <= theta crosses at most one block boundary, so
//     the S-node sequence has sensitivity 1 and gets Lap(1/eps_S) noise.
//   * Each block carries a fan-out-f subtree of H nodes (height
//     h = ceil(log_f theta)) answering intra-block prefixes; a change
//     touches at most 2h H nodes, so each H node gets Lap(2h/eps_H).
//   * s_1 doubles as the root of H_1, whose nodes enjoy the combined
//     budget: Lap(2h/(eps_S + eps_H)).
//
// Total budget eps = eps_S + eps_H. theta = 1 degenerates to the pure
// Ordered Mechanism; theta = |T| to the classical hierarchical mechanism.
// Eqn (14) gives the expected range-query error c1/eps_S^2 + c2/eps_H^2
// and Eqn (15) the optimal split eps_S* = c1^(1/3)/(c1^(1/3)+c2^(1/3)).
//
// Noise is drawn per node on read, as in mech/quadtree.h. A release
// keeps the exact prefix sums S_T, the per-class noise scales and one
// 64-bit key taken from the caller's Random. A node's released value is
// its exact count (a difference of two prefix sums) plus
// KeyedLaplace(key, node's counter, scale), computed when an answer
// reads the node. Counters: S node l (0-indexed) uses l; block b's H
// node i at level v uses k + b * stride + (nodes above level v in
// block b's tree) + i, with stride the node count of a full block's
// tree, so no two nodes of a release share a draw. Every node still
// carries its own independent draw, fixed by the key, so the released
// distribution is that of noising the whole structure up front, and a
// cumulative count costs one S node plus one block's O(f log_f theta)
// greedy descent instead of O(|T|) draws. With consistency on, the
// post-processing needs every node, so Release materializes them all
// from the same keyed draws.

#ifndef BLOWFISH_MECH_ORDERED_HIERARCHICAL_H_
#define BLOWFISH_MECH_ORDERED_HIERARCHICAL_H_

#include <memory>
#include <vector>

#include "core/policy.h"
#include "mech/constrained_inference.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

struct OrderedHierarchicalOptions {
  size_t fanout = 16;
  /// Fraction of eps given to the S nodes; negative means "use the Eqn 15
  /// optimum". When 1 < theta < |T| both node classes need budget, so a
  /// fraction of 0 or 1 is refused.
  double eps_s_fraction = -1.0;
  /// Isotonic regression over the S-node prefix sequence plus Hay
  /// consistency inside each H subtree (post-processing only).
  bool consistency = false;
};

/// The Eqn (14) error constants and the Eqn (15) optimal budget split.
struct OHErrorModel {
  double c1 = 0.0;  // 4 (|T| - theta) / (|T| + 1)
  double c2 = 0.0;  // 8 (f - 1) log_f(theta)^3 |T| / (|T| + 1)

  /// Expected per-range-query error at a given split (Eqn 14).
  double RangeError(double eps_s, double eps_h) const;
  /// eps_S* / eps  (Eqn 15); 0 when c1 = 0 (theta = |T|), 1 when c2 = 0.
  double OptimalSFraction() const;
  /// The minimized error (c1^(1/3) + c2^(1/3))^3 / eps^2 (Eqn 15).
  double OptimalRangeError(double epsilon) const;

  static OHErrorModel Compute(size_t domain_size, size_t theta_steps,
                              size_t fanout);
};

/// A released OH structure supporting cumulative counts and range queries.
class OrderedHierarchicalMechanism {
 public:
  /// Releases the structure for `data` under the 1-D G^{d,theta} `policy`
  /// with total budget `epsilon`; (eps, P)-Blowfish private (Thm 7.2).
  static StatusOr<OrderedHierarchicalMechanism> Release(
      const Histogram& data, const Policy& policy, double epsilon,
      const OrderedHierarchicalOptions& opts, Random& rng);

  /// The same release over the exact prefix sums S_T of the data (the
  /// memo the engine keeps), which the release shares instead of
  /// copying.
  static StatusOr<OrderedHierarchicalMechanism> Release(
      std::shared_ptr<const std::vector<double>> cumulative,
      const Policy& policy, double epsilon,
      const OrderedHierarchicalOptions& opts, Random& rng);

  /// Resolves theta in index units from the policy's secret graph: 1
  /// for a line graph, |T| for the full graph, floor(theta/scale) for
  /// G^{d,theta}. Unimplemented for any other graph kind — callers
  /// admitting queries can use this as the pre-charge support check —
  /// and FailedPrecondition when theta falls below the domain
  /// resolution (no edges; the cumulative histogram is exact and the
  /// mechanism is unnecessary).
  static StatusOr<size_t> ResolveThetaSteps(const Policy& policy);

  /// Noisy cumulative count s_j = q[0, j] (0-indexed bucket j).
  StatusOr<double> CumulativeCount(size_t j) const;

  /// Noisy range count over buckets [lo, hi] inclusive.
  StatusOr<double> RangeQuery(size_t lo, size_t hi) const;

  /// Structure (Fig 2(a)): k S nodes; blocks of theta buckets, each with
  /// an H subtree of height subtree_height() (0 when theta = 1).
  size_t num_s_nodes() const { return num_blocks_; }
  size_t theta_steps() const { return theta_steps_; }
  size_t subtree_height() const { return height_; }

 private:
  OrderedHierarchicalMechanism() = default;

  /// Exact count of buckets [a, b): S_T[b-1] - S_T[a-1].
  double ExactCount(size_t a, size_t b) const;
  /// Released value of the H node at level-order position `node` of
  /// block `block`'s tree, covering the block's buckets [lo, hi).
  double HNode(size_t block, size_t node, size_t lo, size_t hi) const;
  /// Released s_{l+1}.
  double SNode(size_t l) const;
  /// Released intra-block prefix over the first `len` buckets of block
  /// `block`: IntervalTree::PrefixSum's greedy descent, node for node.
  double BlockPrefix(size_t block, size_t len) const;
  /// consistency=1: draws every node, then post-processes them.
  Status MaterializeConsistent();

  size_t domain_size_ = 0;
  size_t theta_steps_ = 0;  // theta in index units
  size_t fanout_ = 0;
  size_t num_blocks_ = 0;   // k = ceil(|T| / theta)
  size_t height_ = 0;       // a full block's H subtree height
  size_t stride_ = 0;       // a full block's H subtree node count
  double s_scale_ = 0.0;    // S nodes (all of them when theta = 1)
  double h_scale_ = 0.0;    // H nodes of blocks 2..k
  double h1_scale_ = 0.0;   // H_1, which owns s_1 as its root
  uint64_t key_ = 0;        // keys the per-node noise draws
  std::shared_ptr<const std::vector<double>> cumulative_;  // exact S_T
  /// consistency=1 only: every node, drawn and post-processed.
  std::vector<double> s_nodes_;
  std::vector<IntervalTree> h_trees_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_ORDERED_HIERARCHICAL_H_
