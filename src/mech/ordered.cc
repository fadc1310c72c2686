#include "mech/ordered.h"

#include "core/sensitivity.h"
#include "mech/constrained_inference.h"
#include "mech/laplace.h"

namespace blowfish {

StatusOr<OrderedMechanismResult> OrderedMechanism(const Histogram& data,
                                                  const Policy& policy,
                                                  double epsilon, Random& rng,
                                                  bool constrained_inference,
                                                  double sensitivity_override) {
  return OrderedMechanism(data.CumulativeSums(), policy, epsilon, rng,
                          constrained_inference, sensitivity_override);
}

StatusOr<OrderedMechanismResult> OrderedMechanism(
    const std::vector<double>& cumulative, const Policy& policy,
    double epsilon, Random& rng, bool constrained_inference,
    double sensitivity_override) {
  if (policy.has_constraints() && sensitivity_override < 0.0) {
    return Status::Unimplemented(
        "the ordered mechanism handles unconstrained policies only unless "
        "the caller supplies a constrained S(S_T, P) override");
  }
  if (cumulative.size() != policy.domain().size()) {
    return Status::InvalidArgument("histogram size does not match domain");
  }
  double sensitivity = sensitivity_override;
  if (sensitivity < 0.0) {
    BLOWFISH_ASSIGN_OR_RETURN(sensitivity,
                              CumulativeHistogramSensitivity(policy));
  }
  BLOWFISH_ASSIGN_OR_RETURN(
      std::vector<double> noisy,
      LaplaceRelease(cumulative, sensitivity, epsilon, rng));

  OrderedMechanismResult result;
  result.sensitivity = sensitivity;
  result.noisy_cumulative = noisy;
  // The dataset size, public under indistinguishability.
  const double total = cumulative.empty() ? 0.0 : cumulative.back();
  if (constrained_inference) {
    BLOWFISH_ASSIGN_OR_RETURN(std::vector<double> iso,
                              IsotonicRegression(noisy));
    result.inferred_cumulative = ClampCumulative(std::move(iso), total);
  } else {
    result.inferred_cumulative = ClampCumulative(noisy, total);
  }
  return result;
}

double OrderedMechanismRangeErrorBound(double epsilon) {
  return 4.0 / (epsilon * epsilon);
}

}  // namespace blowfish
