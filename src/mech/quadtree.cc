#include "mech/quadtree.h"

#include <algorithm>
#include <cassert>

namespace blowfish {

namespace {

constexpr size_t kMaxDepth = 12;  // 4096 x 4096 leaves

size_t DepthFor(uint64_t max_card) {
  size_t d = 0;
  uint64_t side = 1;
  while (side < max_card) {
    side *= 2;
    ++d;
  }
  return d;
}

/// Shared head of both Release overloads: validates the policy/options
/// pair and resolves the padded layout. Writes depth/side on success.
Status PlanRelease(const Policy& policy, double epsilon,
                   const QuadtreeOptions& opts, size_t* depth,
                   uint64_t* side) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (policy.has_constraints() && !opts.caller_calibrated_constraints) {
    return Status::Unimplemented(
        "the quadtree mechanism handles unconstrained policies unless "
        "the caller calibrates epsilon to a constrained S(h, P)");
  }
  const Domain& dom = policy.domain();
  if (dom.num_attributes() != 2) {
    return Status::InvalidArgument("quadtree needs a 2-attribute domain");
  }
  const uint64_t m0 = dom.attribute(0).cardinality;
  const uint64_t m1 = dom.attribute(1).cardinality;
  *depth = opts.depth == 0 ? DepthFor(std::max(m0, m1)) : opts.depth;
  if (*depth > kMaxDepth) {
    return Status::ResourceExhausted("quadtree depth exceeds the cap");
  }
  *side = uint64_t{1} << *depth;
  if (*side < std::max(m0, m1)) {
    return Status::InvalidArgument(
        "requested depth cannot resolve the domain grid");
  }
  return Status::OK();
}

/// Position of level `level`'s first node in level order:
/// 4^0 + ... + 4^(level-1) = (4^level - 1) / 3.
size_t LevelOffset(size_t level) {
  return ((size_t{1} << (2 * level)) - 1) / 3;
}

/// Zeroed counts for every node of a depth-`depth` tree, in level order.
std::vector<double> EmptyTree(size_t depth) {
  return std::vector<double>(LevelOffset(depth + 1), 0.0);
}

}  // namespace

size_t QuadtreeMechanism::ExactLevelsForPolicy(const Policy& policy,
                                               size_t depth) {
  // A level l is exact iff every partition cell of G^P lies within a
  // single level-l node, i.e. the node side 2^(d-l) is a multiple of the
  // per-axis block widths (blocks and nodes are both aligned to zero).
  // Note the direction: *coarse* levels are exact — a within-cell move
  // never crosses a node that wholly contains the cell.
  const auto* part = dynamic_cast<const PartitionGraph*>(&policy.graph());
  if (part == nullptr || part->uniform_blocks().size() != 2) return 0;
  uint64_t b0 = part->uniform_blocks()[0];
  uint64_t b1 = part->uniform_blocks()[1];
  if (b0 == 0 || b1 == 0) return 0;
  size_t exact = 0;
  for (size_t l = 1; l <= depth; ++l) {
    uint64_t side = uint64_t{1} << (depth - l);
    if (side % b0 == 0 && side % b1 == 0) {
      exact = l;
    } else {
      break;  // sides shrink with l; once misaligned, deeper stays so
    }
  }
  return exact;
}

StatusOr<QuadtreeMechanism> QuadtreeMechanism::FinishRelease(
    std::vector<double> counts, size_t depth, const Policy& policy,
    double epsilon, Random& rng) {
  // Aggregate upwards.
  for (size_t l = depth; l-- > 0;) {
    const size_t w = size_t{1} << l;
    const size_t cw = w * 2;
    double* parent = counts.data() + LevelOffset(l);
    const double* child = counts.data() + LevelOffset(l + 1);
    for (size_t i = 0; i < w; ++i) {
      for (size_t j = 0; j < w; ++j) {
        parent[i * w + j] = child[(2 * i) * cw + (2 * j)] +
                            child[(2 * i) * cw + (2 * j + 1)] +
                            child[(2 * i + 1) * cw + (2 * j)] +
                            child[(2 * i + 1) * cw + (2 * j + 1)];
      }
    }
  }

  // Exact levels under the policy; everything deeper gets noise. A tuple
  // move changes at most one node per level per endpoint (2 per level),
  // so with per-level budget eps / (#noised levels) each node gets
  // Lap(2 (#noised levels) / eps). Pinned constraints disable the
  // free-levels optimization entirely: a neighbour step's compensating
  // moves may cross any partition cell, so no level is exact (the
  // caller's group-privacy epsilon scaling covers the chained moves).
  // The draws themselves are made on read, in Decompose, from one key
  // per release.
  const bool pinned =
      policy.has_constraints() && policy.constraints().AnyPinned();
  const size_t exact = pinned ? 0 : ExactLevelsForPolicy(policy, depth);
  const size_t noised = depth - exact;
  const double scale =
      noised > 0 ? 2.0 * static_cast<double>(noised) / epsilon : 0.0;
  const uint64_t key = rng.engine()();
  return QuadtreeMechanism(depth, exact, scale, key, std::move(counts));
}

StatusOr<QuadtreeMechanism> QuadtreeMechanism::Release(
    const Dataset& data, const Policy& policy, double epsilon,
    const QuadtreeOptions& opts, Random& rng) {
  size_t depth = 0;
  uint64_t side = 0;
  BLOWFISH_RETURN_IF_ERROR(PlanRelease(policy, epsilon, opts, &depth, &side));
  const Domain& dom = policy.domain();
  if (&data.domain() != &dom && data.domain().size() != dom.size()) {
    return Status::InvalidArgument("dataset domain mismatch");
  }
  std::vector<double> counts = EmptyTree(depth);
  double* leaf = counts.data() + LevelOffset(depth);
  for (ValueIndex t : data.tuples()) {
    uint64_t x = dom.Coordinate(t, 0);
    uint64_t y = dom.Coordinate(t, 1);
    leaf[x * side + y] += 1.0;
  }
  return FinishRelease(std::move(counts), depth, policy, epsilon, rng);
}

StatusOr<QuadtreeMechanism> QuadtreeMechanism::Release(
    const Histogram& hist, const Policy& policy, double epsilon,
    const QuadtreeOptions& opts, Random& rng) {
  size_t depth = 0;
  uint64_t side = 0;
  BLOWFISH_RETURN_IF_ERROR(PlanRelease(policy, epsilon, opts, &depth, &side));
  const Domain& dom = policy.domain();
  if (hist.size() != dom.size()) {
    return Status::InvalidArgument("histogram size does not match domain");
  }
  // The domain is row-major (value x * m1 + y holds coordinates (x, y)),
  // so each domain row is one contiguous run of a padded leaf row.
  const uint64_t m0 = dom.attribute(0).cardinality;
  const uint64_t m1 = dom.attribute(1).cardinality;
  std::vector<double> counts = EmptyTree(depth);
  double* leaf = counts.data() + LevelOffset(depth);
  const double* row = hist.counts().data();
  for (uint64_t x = 0; x < m0; ++x, row += m1) {
    std::copy(row, row + m1, leaf + x * side);
  }
  return FinishRelease(std::move(counts), depth, policy, epsilon, rng);
}

double QuadtreeMechanism::Decompose(size_t level, size_t cx, size_t cy,
                                    size_t x0, size_t x1, size_t y0,
                                    size_t y1) const {
  const size_t side = size_t{1} << (depth_ - level);
  const size_t nx0 = cx * side, nx1 = nx0 + side - 1;
  const size_t ny0 = cy * side, ny1 = ny0 + side - 1;
  if (nx1 < x0 || nx0 > x1 || ny1 < y0 || ny0 > y1) return 0.0;  // disjoint
  if (x0 <= nx0 && nx1 <= x1 && y0 <= ny0 && ny1 <= y1) {
    // Fully covered: use this node's released value, drawing its noise
    // now. The draw is keyed by the node, so every read sees one value.
    const size_t node = LevelOffset(level) + cx * (size_t{1} << level) + cy;
    if (level <= exact_levels_) return counts_[node];
    return counts_[node] + KeyedLaplace(key_, node, scale_);
  }
  assert(level < depth_);  // leaves are single cells: covered or disjoint
  double total = 0.0;
  for (size_t dx = 0; dx < 2; ++dx) {
    for (size_t dy = 0; dy < 2; ++dy) {
      total += Decompose(level + 1, 2 * cx + dx, 2 * cy + dy, x0, x1, y0,
                         y1);
    }
  }
  return total;
}

StatusOr<double> QuadtreeMechanism::RangeCount(const Rectangle& rect) const {
  if (rect.lo.size() != 2 || rect.hi.size() != 2) {
    return Status::InvalidArgument("quadtree rectangles are 2-D");
  }
  const size_t width = size_t{1} << depth_;  // padded side
  if (rect.lo[0] > rect.hi[0] || rect.lo[1] > rect.hi[1] ||
      rect.hi[0] >= width || rect.hi[1] >= width) {
    return Status::OutOfRange("rectangle outside the padded grid");
  }
  return Decompose(0, 0, 0, rect.lo[0], rect.hi[0], rect.lo[1], rect.hi[1]);
}

}  // namespace blowfish
