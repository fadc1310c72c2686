// `range`, `cdf`, `quantiles` — the Ordered Mechanism family (Sec 7).
//
//   range     eps=0.1 lo=5 hi=40 [label=] [session=]
//   cdf       eps=0.1            [label=] [session=]
//   quantiles eps=0.1 qs=0.25,0.5,0.75 [label=] [session=]
//
// All three release the cumulative histogram S_T once (sensitivity
// theta in index units, Def 7.1) and differ only in the free
// post-processing applied to it (mech/cdf_applications.h). A policy
// whose graph is edgeless (theta < scale) publishes the exact prefix
// sums for free. Both paths read the engine's memoized S_T instead of
// summing h(D) again. Pinned-constrained policies serve too: S(S_T, P)
// comes from the weighted chain analysis (Thm 8.2 generalized,
// core/sensitivity.h) and rides into the mechanism as a sensitivity
// override. `qs=` must be a strictly increasing list inside [0, 1]
// (absent key -> 0.25,0.5,0.75).

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/cdf_applications.h"
#include "mech/ordered.h"

namespace blowfish {
namespace {

/// Shared S_T release; subclasses post-process the cumulative counts.
class OrderedFamilyOp : public QueryOp {
 public:
  Status Validate(const Policy& policy) const override {
    if (policy.domain().num_attributes() != 1) {
      return Status::InvalidArgument(
          "op '" + KindName() + "' requires a 1-D ordered domain");
    }
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("S_T");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    if (policy.has_constraints() && policy.constraints().AnyPinned()) {
      // Pinned constraints chain several moves per neighbour step
      // (Thm 8.2): the unconstrained closed form would under-calibrate
      // the noise, so S(S_T, P) comes from the weighted all-pairs chain
      // analysis over the prefix-sum query.
      CumulativeHistogramQuery query(policy.domain().size());
      return ConstrainedLinearQuerySensitivity(
          query, policy, env.max_edges, env.max_pairs,
          env.max_policy_graph_vertices);
    }
    return CumulativeHistogramSensitivity(policy);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    if (ctx.sensitivity == 0.0) {
      // Free release: no pair of P-neighbours changes the cumulative
      // histogram, so the engine's exact prefix sums can be published.
      return PostProcess(*ctx.cumulative);
    }
    // The resolved S(S_T, P) rides along as the mechanism's noise
    // calibration — the unconstrained value matches what the mechanism
    // would compute itself (identical release), and the constrained
    // chain bound is what lets it accept pinned policies.
    BLOWFISH_ASSIGN_OR_RETURN(
        OrderedMechanismResult released,
        OrderedMechanism(*ctx.cumulative, ctx.policy, ctx.epsilon, rng,
                         /*constrained_inference=*/true,
                         /*sensitivity_override=*/ctx.sensitivity));
    return PostProcess(released.inferred_cumulative);
  }

 protected:
  /// Free post-processing of the released cumulative counts (Sec 7
  /// intro: quantiles, range queries, CDFs — no extra budget).
  virtual StatusOr<std::vector<double>> PostProcess(
      const std::vector<double>& cumulative) const = 0;
};

class RangeOp final : public OrderedFamilyOp {
 public:
  std::string KindName() const override { return "range"; }
  std::string ExampleArgs() const override { return "lo=0 hi=1"; }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("lo", &lo_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("hi", &hi_));
    return Status::OK();
  }

 protected:
  StatusOr<std::vector<double>> PostProcess(
      const std::vector<double>& cumulative) const override {
    BLOWFISH_ASSIGN_OR_RETURN(double answer,
                              RangeFromCumulative(cumulative, lo_, hi_));
    return std::vector<double>{answer};
  }

 private:
  size_t lo_ = 0;
  size_t hi_ = 0;
};

class CdfOp final : public OrderedFamilyOp {
 public:
  std::string KindName() const override { return "cdf"; }

  Status Parse(KeyValueBag& kv) override {
    (void)kv;
    return Status::OK();
  }

 protected:
  StatusOr<std::vector<double>> PostProcess(
      const std::vector<double>& cumulative) const override {
    return CdfFromCumulative(cumulative);
  }
};

class QuantilesOp final : public OrderedFamilyOp {
 public:
  std::string KindName() const override { return "quantiles"; }
  std::string ExampleArgs() const override { return "qs=0.25,0.5,0.75"; }

  Status Parse(KeyValueBag& kv) override {
    // Raw Take first: TakeDoubleList cannot tell a present-but-empty
    // `qs=` (an error) from an absent key (the documented default).
    std::optional<std::string> raw = kv.Take("qs");
    if (!raw.has_value()) {
      quantiles_ = {0.25, 0.5, 0.75};
      return Status::OK();
    }
    kv.Add("qs", *raw);
    BLOWFISH_RETURN_IF_ERROR(kv.TakeDoubleList("qs", &quantiles_));
    if (quantiles_.empty()) {
      return Status::InvalidArgument(
          "empty list for 'qs' " + kv.context());
    }
    double prev = -1.0;
    for (double q : quantiles_) {
      if (!(q >= 0.0 && q <= 1.0)) {
        return Status::InvalidArgument(
            "quantile out of [0, 1] for 'qs' " + kv.context());
      }
      if (q <= prev) {
        return Status::InvalidArgument(
            "non-monotone list for 'qs' (must be strictly increasing) " +
            kv.context());
      }
      prev = q;
    }
    return Status::OK();
  }

 protected:
  StatusOr<std::vector<double>> PostProcess(
      const std::vector<double>& cumulative) const override {
    std::vector<double> out;
    out.reserve(quantiles_.size());
    for (double q : quantiles_) {
      BLOWFISH_ASSIGN_OR_RETURN(size_t bucket,
                                QuantileFromCumulative(cumulative, q));
      out.push_back(static_cast<double>(bucket));
    }
    return out;
  }

 private:
  std::vector<double> quantiles_;
};

const QueryOpRegistrar kRange{"range",
                              [] { return std::make_unique<RangeOp>(); }};
const QueryOpRegistrar kCdf{"cdf", [] { return std::make_unique<CdfOp>(); }};
const QueryOpRegistrar kQuantiles{
    "quantiles", [] { return std::make_unique<QuantilesOp>(); }};

}  // namespace
}  // namespace blowfish
