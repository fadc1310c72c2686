// `mean` — noisy average of a 1-D ordered attribute.
//
//   mean eps=0.2 [label=] [session=]
//
// f(D) = (sum_x v(x) c(x)) / n with v(x) = x * scale and n = |D|. Under
// Blowfish, neighbours *move* one tuple (n is public), so only the
// value-weighted sum needs noise. Unconstrained policies pay the
// generic sensitivity max_{(x,y) in E(G)} |v(x) - v(y)| — e.g. theta
// under a distance-threshold policy G^{d,theta}, against (|T|-1) * scale
// under full-domain secrets. Constrained neighbours may chain several
// compensating moves (Thm 8.2); the weighted policy-graph bound
// (ConstrainedLinearQuerySensitivity) charges each move of the chain
// its own |v(x) - v(y)|, so constrained policies are served too. The
// released payload is { noisy_sum / n }.
//
// This op (and ops/wavelet_range_op.cc) was added after the registry
// refactor without touching the engine — it is the extensibility proof.

#include <memory>
#include <string>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/laplace.h"

namespace blowfish {
namespace {

/// The numerator sum_x (x * scale) * h[x], buckets ascending: the
/// accumulation order (and so the bit pattern) mean has always used.
double ValueWeightedSum(const Histogram& h, double scale) {
  double sum = 0.0;
  for (size_t x = 0; x < h.size(); ++x) {
    sum += static_cast<double>(x) * scale * h[x];
  }
  return sum;
}

class MeanOp final : public QueryOp {
 public:
  std::string KindName() const override { return "mean"; }

  Status Parse(KeyValueBag& kv) override {
    (void)kv;  // no op-specific keys
    return Status::OK();
  }

  Status Validate(const Policy& policy) const override {
    if (policy.domain().num_attributes() != 1) {
      return Status::InvalidArgument(
          "mean requires a 1-D ordered domain");
    }
    return Status::OK();
  }

  Status ValidateData(const Policy& policy,
                      const Dataset& data) const override {
    (void)policy;
    if (data.size() == 0) {
      // Refused at admission: n is public, so a doomed mean must not
      // charge budget only to refund it from Execute.
      return Status::FailedPrecondition("mean of an empty dataset");
    }
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("mean");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    const double scale = policy.domain().attribute(0).scale;
    ValueWeightedSumQuery query(
        [scale](ValueIndex x) { return static_cast<double>(x) * scale; });
    // Unconstrained policies reduce to the generic edge maximum;
    // constrained ones pay the weighted Thm 8.2 chain bound.
    return ConstrainedLinearQuerySensitivity(
        query, policy, env.max_edges, env.max_pairs,
        env.max_policy_graph_vertices);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    const double n = ctx.hist.Total();
    if (n <= 0.0) {
      return Status::FailedPrecondition("mean of an empty dataset");
    }
    const double scale = ctx.policy.domain().attribute(0).scale;
    const double sum = ValueWeightedSum(ctx.hist, scale);
    if (ctx.sensitivity == 0.0) return std::vector<double>{sum / n};
    BLOWFISH_ASSIGN_OR_RETURN(
        std::vector<double> released,
        LaplaceRelease({sum}, ctx.sensitivity, ctx.epsilon, rng));
    return std::vector<double>{released[0] / n};
  }
};

const QueryOpRegistrar kRegistrar{"mean",
                                  [] { return std::make_unique<MeanOp>(); }};

}  // namespace
}  // namespace blowfish
