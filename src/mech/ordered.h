// The Ordered Mechanism (Sec 7.1).
//
// Under a line-graph policy (G^{d,1} on an ordered domain) the cumulative
// histogram S_T has policy-specific sensitivity 1 — against |T|-1 under
// differential privacy — so each cumulative count can be released with
// Lap(1/eps) noise. Monotonicity is then restored by constrained
// inference (isotonic regression), which drops the total error to
// O(p log^3 |T| / eps^2) for data with p distinct cumulative counts, and
// any range query costs at most two cumulative counts: error <= 4/eps^2
// (Thm 7.1), independent of |T|.
//
// For the general G^{d,theta} policy the sensitivity grows to
// floor(theta/scale) index steps; the hybrid of Sec 7.2 is in
// mech/ordered_hierarchical.h.

#ifndef BLOWFISH_MECH_ORDERED_H_
#define BLOWFISH_MECH_ORDERED_H_

#include <vector>

#include "core/policy.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

struct OrderedMechanismResult {
  /// Raw noisy cumulative counts s~_i.
  std::vector<double> noisy_cumulative;
  /// After isotonic regression + clamping to [0, n] with the public total
  /// pinned (s^_i).
  std::vector<double> inferred_cumulative;
  /// The sensitivity used (index units): 1 for the line graph.
  double sensitivity = 0.0;

  /// Range query q[lo, hi] from the inferred cumulative counts.
  StatusOr<double> RangeQuery(size_t lo, size_t hi) const {
    return RangeFromCumulative(inferred_cumulative, lo, hi);
  }
};

/// Releases the cumulative histogram of `data` under `policy`
/// ((eps, P)-Blowfish private by Thm 5.1). The policy must be over a 1-D
/// ordered domain; its graph determines the sensitivity
/// (line graph -> 1, G^{d,theta} -> floor(theta/scale), full -> |T|-1).
/// When `constrained_inference` is false, inferred_cumulative is only
/// clamped, not isotonized.
///
/// `sensitivity_override` >= 0 replaces the internally computed
/// unconstrained sensitivity — the hook constrained-policy callers use:
/// they compute S(S_T, P) themselves via the weighted chain analysis
/// (core/sensitivity.h) and stay responsible for its soundness, so the
/// mechanism accepts pinned-constrained policies only on this path. The
/// default (-1) keeps the unconstrained closed forms and refuses
/// constrained policies.
StatusOr<OrderedMechanismResult> OrderedMechanism(
    const Histogram& data, const Policy& policy, double epsilon, Random& rng,
    bool constrained_inference = true, double sensitivity_override = -1.0);

/// The same release over the exact prefix sums S_T of the data (the memo
/// the engine keeps); the public total is its last entry.
StatusOr<OrderedMechanismResult> OrderedMechanism(
    const std::vector<double>& cumulative, const Policy& policy,
    double epsilon, Random& rng, bool constrained_inference = true,
    double sensitivity_override = -1.0);

/// Analytic per-range-query error bound of Thm 7.1 for the line graph:
/// 4/eps^2 (two cumulative counts, each Var(Lap(1/eps)) = 2/eps^2).
double OrderedMechanismRangeErrorBound(double epsilon);

}  // namespace blowfish

#endif  // BLOWFISH_MECH_ORDERED_H_
