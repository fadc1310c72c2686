// Quadtree spatial decomposition for 2-D range counts (Cormode et al.
// [5], cited in Sec 7.2), with a Blowfish-specific optimization.
//
// The 2-D domain is padded to a 2^d x 2^d grid; level l holds a
// 2^l x 2^l grid of cell counts (level 0 = the public total). Under
// differential privacy every level below the root is perturbed: a tuple
// move changes at most one cell per level per endpoint, so uniform
// per-level budgets eps/d with per-node noise Lap(2 d / eps) give eps-DP.
// Rectangle range counts decompose into O(4^0 + ... ) canonical cells per
// level with the usual logarithmic boundary cost.
//
// Under a Blowfish uniform-grid partition policy G^P whose cells align
// with quadtree cells at level l* (cell side divides the partition block
// on both axes... precisely: every level-l cell with l <= l* lies inside
// one partition cell), the counts at levels 0..l* have policy-specific
// sensitivity 0 — an edge of G^P never moves mass across them — and are
// released *exactly*; only the d - l* deeper levels need noise. This is
// the spatial analogue of Sec 5's "the histogram of P can be released
// without any noise".
//
// Noise is drawn per node on read. A release keeps the exact counts and
// one 64-bit key taken from the caller's Random; a noised node's value
// is its count plus KeyedLaplace(key, node's level-order index, scale)
// (util/random.h), computed when a rectangle's canonical cover reads it.
// The released synopsis has the same distribution as noising the whole
// tree up front: every node still carries its own independent
// Lap(2 (#noised levels) / eps) draw, fixed by the key, so repeated
// RangeCount calls on one release read identical node values and stay
// consistent with each other; and nothing reads a node outside a cover,
// so the draws never made are never observed. A query costs
// O(cover) noise draws instead of O(4^d).

#ifndef BLOWFISH_MECH_QUADTREE_H_
#define BLOWFISH_MECH_QUADTREE_H_

#include <vector>

#include "core/constraints.h"
#include "core/policy.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

struct QuadtreeOptions {
  /// Maximum tree depth; the grid is padded to side 2^depth. 0 means
  /// "deep enough to resolve single grid cells" (capped at 12 -> 4096^2).
  size_t depth = 0;
  /// Accept constrained policies: the caller has already scaled epsilon
  /// to the chained-move sensitivity S(h, P) (group privacy over the
  /// <= S/2 moves of one neighbour step). Pinned constraints also
  /// disable the free-levels optimization — a compensating move is not
  /// confined to a partition cell, so no level is exact. Without this
  /// flag constrained policies are refused.
  bool caller_calibrated_constraints = false;
};

/// A released quadtree supporting 2-D rectangle range counts.
class QuadtreeMechanism {
 public:
  /// Releases the quadtree for a dataset over a 2-attribute domain under
  /// `policy` ((eps, P)-Blowfish private). Supported graphs: the full
  /// graph (eps-DP; all levels noised) and uniform-grid PartitionGraph
  /// policies (aligned coarse levels exact).
  static StatusOr<QuadtreeMechanism> Release(const Dataset& data,
                                             const Policy& policy,
                                             double epsilon,
                                             const QuadtreeOptions& opts,
                                             Random& rng);

  /// The same release fed from a complete histogram over the domain
  /// (hist[v] tuples at value v) instead of raw rows — the h(D) the
  /// engine memoizes, so query ops never row-walk the dataset
  /// themselves.
  static StatusOr<QuadtreeMechanism> Release(const Histogram& hist,
                                             const Policy& policy,
                                             double epsilon,
                                             const QuadtreeOptions& opts,
                                             Random& rng);

  /// Noisy count of tuples inside the rectangle (inclusive grid coords of
  /// the *original* domain).
  StatusOr<double> RangeCount(const Rectangle& rect) const;

  /// Depth d (levels 0..d).
  size_t depth() const { return depth_; }

  /// The deepest level released exactly (0 = only the public total).
  size_t exact_levels() const { return exact_levels_; }

  /// The deepest exact level for a policy, given the padded grid: the
  /// largest l such that every level-l cell lies within one partition
  /// cell. Returns 0 for non-partition policies.
  static size_t ExactLevelsForPolicy(const Policy& policy, size_t depth);

 private:
  QuadtreeMechanism(size_t depth, size_t exact_levels, double scale,
                    uint64_t key, std::vector<double> counts)
      : depth_(depth), exact_levels_(exact_levels), scale_(scale),
        key_(key), counts_(std::move(counts)) {}

  /// Shared tail of both Release overloads: aggregates the filled leaf
  /// level upwards, picks the exact levels and the noise scale, and takes
  /// the release's noise key from `rng`.
  static StatusOr<QuadtreeMechanism> FinishRelease(std::vector<double> counts,
                                                   size_t depth,
                                                   const Policy& policy,
                                                   double epsilon,
                                                   Random& rng);

  /// Sum of released node values covering [x0,x1] x [y0,y1] at the
  /// deepest usable granularity; recursive canonical decomposition.
  double Decompose(size_t level, size_t cx, size_t cy, size_t x0, size_t x1,
                   size_t y0, size_t y1) const;

  size_t depth_;         // levels 0..d; padded side 2^d
  size_t exact_levels_;  // levels 0..exact_levels_ are exact
  double scale_;         // per-node Laplace scale below the exact levels
  uint64_t key_;         // keys the per-node noise draws
  /// Exact node counts in level order: the root, then each level's
  /// (2^l x 2^l) row-major grid. A node's position here is also the
  /// counter of its noise draw.
  std::vector<double> counts_;
};

}  // namespace blowfish

#endif  // BLOWFISH_MECH_QUADTREE_H_
