#include "mech/ordered_hierarchical.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <utility>

#include "core/secret_graph.h"

namespace blowfish {

double OHErrorModel::RangeError(double eps_s, double eps_h) const {
  double err = 0.0;
  if (c1 > 0.0) {
    if (!(eps_s > 0.0)) return std::numeric_limits<double>::infinity();
    err += c1 / (eps_s * eps_s);
  }
  if (c2 > 0.0) {
    if (!(eps_h > 0.0)) return std::numeric_limits<double>::infinity();
    err += c2 / (eps_h * eps_h);
  }
  return err;
}

double OHErrorModel::OptimalSFraction() const {
  if (c1 <= 0.0) return 0.0;
  if (c2 <= 0.0) return 1.0;
  double a = std::cbrt(c1);
  double b = std::cbrt(c2);
  return a / (a + b);
}

double OHErrorModel::OptimalRangeError(double epsilon) const {
  double a = std::cbrt(c1);
  double b = std::cbrt(c2);
  double s = a + b;
  return s * s * s / (epsilon * epsilon);
}

OHErrorModel OHErrorModel::Compute(size_t domain_size, size_t theta_steps,
                                   size_t fanout) {
  OHErrorModel m;
  const double t = static_cast<double>(domain_size);
  const double theta = static_cast<double>(
      std::min<size_t>(theta_steps, domain_size));
  m.c1 = 4.0 * (t - theta) / (t + 1.0);
  double logf = theta > 1.0
                    ? std::log(theta) / std::log(static_cast<double>(fanout))
                    : 0.0;
  m.c2 = 8.0 * (static_cast<double>(fanout) - 1.0) * logf * logf * logf * t /
         (t + 1.0);
  return m;
}

namespace {

/// Resolves theta in index units from the policy's secret graph.
StatusOr<size_t> ThetaSteps(const Policy& policy) {
  if (policy.domain().num_attributes() != 1) {
    return Status::InvalidArgument(
        "the ordered hierarchical mechanism requires a 1-D ordered domain");
  }
  const SecretGraph& g = policy.graph();
  const size_t n = policy.domain().size();
  if (dynamic_cast<const LineGraph*>(&g) != nullptr) return size_t{1};
  if (dynamic_cast<const FullGraph*>(&g) != nullptr) return n;
  if (auto* thresh = dynamic_cast<const DistanceThresholdGraph*>(&g)) {
    double scale = policy.domain().attribute(0).scale;
    double steps = std::floor(thresh->theta() / scale);
    if (steps < 1.0) {
      return Status::FailedPrecondition(
          "theta below the domain resolution: the graph has no edges and "
          "the cumulative histogram can be released exactly");
    }
    return static_cast<size_t>(std::min(steps, static_cast<double>(n)));
  }
  return Status::Unimplemented(
      "ordered hierarchical mechanism supports line, full, and "
      "distance-threshold graphs");
}

}  // namespace

StatusOr<size_t> OrderedHierarchicalMechanism::ResolveThetaSteps(
    const Policy& policy) {
  return ThetaSteps(policy);
}

StatusOr<OrderedHierarchicalMechanism> OrderedHierarchicalMechanism::Release(
    const Histogram& data, const Policy& policy, double epsilon,
    const OrderedHierarchicalOptions& opts, Random& rng) {
  return Release(
      std::make_shared<const std::vector<double>>(data.CumulativeSums()),
      policy, epsilon, opts, rng);
}

StatusOr<OrderedHierarchicalMechanism> OrderedHierarchicalMechanism::Release(
    std::shared_ptr<const std::vector<double>> cumulative,
    const Policy& policy, double epsilon,
    const OrderedHierarchicalOptions& opts, Random& rng) {
  if (!(epsilon > 0.0)) {
    return Status::InvalidArgument("epsilon must be positive");
  }
  if (policy.has_constraints() && policy.constraints().AnyPinned()) {
    // An UNPINNED constraint set restricts nothing (SatisfiedBy ignores
    // queries without answers) and is served like the unconstrained
    // policy; pinned chains break the per-node distance calibration.
    return Status::Unimplemented(
        "the ordered hierarchical mechanism handles unconstrained policies");
  }
  if (cumulative->size() != policy.domain().size()) {
    return Status::InvalidArgument("histogram size does not match domain");
  }
  BLOWFISH_ASSIGN_OR_RETURN(size_t theta, ThetaSteps(policy));
  if (theta > 1 && opts.fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  const size_t n = cumulative->size();

  // Budget split (Eqn 15 by default). theta = 1 -> all budget to S nodes;
  // theta = |T| -> all budget to the single H tree. In between, both
  // node classes publish counts, and a class without budget would
  // publish them exactly.
  OHErrorModel model = OHErrorModel::Compute(n, theta, opts.fanout);
  double frac = opts.eps_s_fraction >= 0.0 ? opts.eps_s_fraction
                                           : model.OptimalSFraction();
  frac = std::clamp(frac, 0.0, 1.0);
  if (theta == 1) frac = 1.0;
  if (theta >= n) frac = 0.0;
  const double eps_s = frac * epsilon;
  const double eps_h = epsilon - eps_s;
  if (theta > 1 && theta < n && !(eps_s > 0.0 && eps_h > 0.0)) {
    return Status::InvalidArgument(
        "eps_s_fraction must leave both S and H nodes a positive budget");
  }

  OrderedHierarchicalMechanism m;
  m.domain_size_ = n;
  m.theta_steps_ = theta;
  m.fanout_ = opts.fanout;
  m.num_blocks_ = (n + theta - 1) / theta;
  if (theta > 1) {
    // A full block's subtree: height h = ceil(log_f theta), and level v
    // holds ceil(theta / f^(h-v)) nodes.
    size_t span = 1;
    while (span < theta) {
      span *= opts.fanout;
      ++m.height_;
    }
    for (; span > 0; span /= opts.fanout) {
      m.stride_ += (theta + span - 1) / span;
    }
  }
  // S nodes l >= 2 (1-indexed): Lap(1/eps_S); sensitivity 1 across the
  // S-node sequence (a move of <= theta crosses at most one boundary).
  // When theta = 1, s_1 is released directly with the same Lap(1/eps),
  // unless |T| = 1: then no S node has budget, and none needs it, since
  // a one-value domain has no secret pairs.
  m.s_scale_ = eps_s > 0.0 ? 1.0 / eps_s : 0.0;
  // H nodes: Lap(2(h+1)/eps_H); H_1 (which owns s_1 as its root) enjoys
  // the combined budget Lap(2(h+1)/(eps_S + eps_H)). The paper writes the
  // scale as 2h/eps_H with h = ceil(log_f theta); we charge the *exact*
  // root-to-leaf path length h+1, since a tuple move touches up to two
  // full paths (2(h+1) nodes) and the looser constant would overspend the
  // budget (verified by the brute-force accounting in
  // tests/privacy_property_test.cc).
  const double path = static_cast<double>(m.height_ + 1);
  m.h_scale_ = eps_h > 0.0 ? 2.0 * path / eps_h : 0.0;
  m.h1_scale_ = 2.0 * path / (eps_s + eps_h);
  m.key_ = rng.engine()();
  m.cumulative_ = std::move(cumulative);
  if (opts.consistency) {
    BLOWFISH_RETURN_IF_ERROR(m.MaterializeConsistent());
  }
  return m;
}

double OrderedHierarchicalMechanism::ExactCount(size_t a, size_t b) const {
  const std::vector<double>& s = *cumulative_;
  return s[b - 1] - (a > 0 ? s[a - 1] : 0.0);
}

double OrderedHierarchicalMechanism::HNode(size_t block, size_t node,
                                           size_t lo, size_t hi) const {
  const size_t start = block * theta_steps_;
  const uint64_t counter = num_blocks_ + block * stride_ + node;
  return ExactCount(start + lo, start + hi) +
         KeyedLaplace(key_, counter, block == 0 ? h1_scale_ : h_scale_);
}

double OrderedHierarchicalMechanism::SNode(size_t l) const {
  if (!s_nodes_.empty()) return s_nodes_[l];
  // s_1 is H_1's root once blocks are wider than one bucket.
  if (l == 0 && theta_steps_ > 1) return HNode(0, 0, 0, theta_steps_);
  const size_t end = std::min((l + 1) * theta_steps_, domain_size_);
  const double exact = ExactCount(0, end);
  return s_scale_ > 0.0 ? exact + KeyedLaplace(key_, l, s_scale_) : exact;
}

double OrderedHierarchicalMechanism::BlockPrefix(size_t block,
                                                 size_t len) const {
  if (!h_trees_.empty()) return h_trees_[block].PrefixSum(len);
  const size_t leaves =
      std::min(theta_steps_, domain_size_ - block * theta_steps_);
  size_t span = 1;  // leaves under one node of the current level
  while (span < leaves) span *= fanout_;
  // Descend from the root, taking fully covered nodes left to right and
  // stepping into the first child of a node that sticks out past len —
  // the order IntervalTree::PrefixSum sums in, so a lazy release answers
  // exactly as the materialized tree would.
  double total = 0.0;
  size_t level_offset = 0;  // nodes on the levels above this one
  size_t index = 0;
  while (true) {
    const size_t lo = index * span;
    const size_t hi = std::min(lo + span, leaves);
    if (hi <= len) {
      total += HNode(block, level_offset + index, lo, hi);
      if (hi == len) return total;
      ++index;
      continue;
    }
    if (span == 1) return total;  // a leaf sticks out: nothing left
    level_offset += (leaves + span - 1) / span;
    span /= fanout_;
    index *= fanout_;
  }
}

Status OrderedHierarchicalMechanism::MaterializeConsistent() {
  if (theta_steps_ > 1) {
    h_trees_.reserve(num_blocks_);
    for (size_t b = 0; b < num_blocks_; ++b) {
      const size_t leaves =
          std::min(theta_steps_, domain_size_ - b * theta_steps_);
      BLOWFISH_ASSIGN_OR_RETURN(IntervalTree tree,
                                IntervalTree::Build(leaves, fanout_));
      size_t node = 0;
      for (size_t v = 0; v < tree.levels.size(); ++v) {
        for (size_t i = 0; i < tree.levels[v].size(); ++i, ++node) {
          auto [lo, hi] = tree.NodeRange(v, i);
          tree.levels[v][i] = HNode(b, node, lo, hi);
        }
      }
      h_trees_.push_back(TreeConsistency(tree));
    }
  }
  std::vector<double> s_nodes(num_blocks_);
  for (size_t l = 0; l < num_blocks_; ++l) s_nodes[l] = SNode(l);
  if (!h_trees_.empty()) s_nodes[0] = h_trees_[0].levels[0][0];
  BLOWFISH_ASSIGN_OR_RETURN(s_nodes_, IsotonicRegression(s_nodes));
  return Status::OK();
}

StatusOr<double> OrderedHierarchicalMechanism::CumulativeCount(
    size_t j) const {
  if (j >= domain_size_) {
    return Status::OutOfRange("cumulative index out of bounds");
  }
  const size_t len = j + 1;
  const size_t full_blocks = len / theta_steps_;
  const size_t remainder = len % theta_steps_;
  double total = 0.0;
  if (full_blocks >= 1) total += SNode(full_blocks - 1);
  if (remainder > 0) {
    // Intra-block prefix q[x_{l*theta+1}, x_j] from block subtree l.
    total += BlockPrefix(full_blocks, remainder);
  }
  return total;
}

StatusOr<double> OrderedHierarchicalMechanism::RangeQuery(size_t lo,
                                                          size_t hi) const {
  if (lo > hi || hi >= domain_size_) {
    return Status::OutOfRange("range query out of bounds");
  }
  BLOWFISH_ASSIGN_OR_RETURN(double upper, CumulativeCount(hi));
  double lower = 0.0;
  if (lo > 0) {
    BLOWFISH_ASSIGN_OR_RETURN(lower, CumulativeCount(lo - 1));
  }
  return upper - lower;
}

}  // namespace blowfish
