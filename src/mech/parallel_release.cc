#include "mech/parallel_release.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "core/sensitivity.h"
#include "mech/laplace.h"

namespace blowfish {

StatusOr<ParallelHistogramResult> ParallelHistogramRelease(
    const Dataset& data, const Policy& policy,
    const std::vector<std::vector<size_t>>& id_groups,
    const std::vector<double>& epsilon_per_group, Random& rng,
    PrivacyAccountant* accountant, uint64_t max_edges) {
  if (id_groups.empty() || id_groups.size() != epsilon_per_group.size()) {
    return Status::InvalidArgument(
        "need one epsilon per non-empty group list");
  }
  std::unordered_set<size_t> seen;
  for (const auto& group : id_groups) {
    for (size_t id : group) {
      if (id >= data.size()) {
        return Status::InvalidArgument("group references an unknown id");
      }
      if (!seen.insert(id).second) {
        return Status::InvalidArgument(
            "groups must be disjoint (id " + std::to_string(id) +
            " appears twice)");
      }
    }
  }
  for (double e : epsilon_per_group) {
    if (!(e > 0.0)) {
      return Status::InvalidArgument("epsilons must be positive");
    }
  }
  // Thm 4.3 precondition (uniform secrets): every constraint must have an
  // empty critical set, otherwise a single neighbour step can straddle
  // two groups and the parallel bound is unsound.
  if (policy.has_constraints()) {
    BLOWFISH_ASSIGN_OR_RETURN(bool valid,
                              ParallelCompositionValid(policy, max_edges));
    if (!valid) {
      return Status::FailedPrecondition(
          "policy constraints couple individuals across groups; parallel "
          "composition does not apply (Thm 4.3)");
    }
  }

  const double sensitivity = HistogramSensitivity(policy.graph());
  ParallelHistogramResult result;
  result.group_histograms.reserve(id_groups.size());
  for (size_t g = 0; g < id_groups.size(); ++g) {
    Histogram h(policy.domain().size());
    for (size_t id : id_groups[g]) h.Add(data.tuple(id));
    BLOWFISH_ASSIGN_OR_RETURN(
        std::vector<double> noisy,
        LaplaceRelease(h.counts(), sensitivity, epsilon_per_group[g], rng));
    result.group_histograms.push_back(std::move(noisy));
  }
  result.total_epsilon = *std::max_element(epsilon_per_group.begin(),
                                           epsilon_per_group.end());
  if (accountant != nullptr) {
    BLOWFISH_RETURN_IF_ERROR(accountant->SpendParallel(
        epsilon_per_group, "parallel histogram release"));
  }
  return result;
}

StatusOr<ParallelCellHistogramResult> ParallelCellHistogramRelease(
    const Dataset& data, const Policy& policy,
    const std::vector<std::vector<uint64_t>>& cell_groups,
    const std::vector<double>& epsilon_per_group, Random& rng,
    PrivacyAccountant* accountant, uint64_t max_edges,
    uint64_t max_pairs, size_t max_policy_graph_vertices) {
  if (cell_groups.empty() ||
      cell_groups.size() != epsilon_per_group.size()) {
    return Status::InvalidArgument(
        "need one epsilon per non-empty cell-group list");
  }
  for (double e : epsilon_per_group) {
    if (!(e > 0.0)) {
      return Status::InvalidArgument("epsilons must be positive");
    }
  }
  const auto* partition =
      dynamic_cast<const PartitionGraph*>(&policy.graph());
  if (partition == nullptr) {
    return Status::FailedPrecondition(
        "cell-restricted parallel release requires a partition (G^P) "
        "secret graph");
  }
  // Cells must exist (name at least one domain value) and be disjoint
  // across groups (Thm 4.2: an individual's cell is public under G^P).
  std::unordered_set<uint64_t> seen;
  for (const auto& group : cell_groups) {
    if (group.empty()) {
      return Status::InvalidArgument("cell groups must be non-empty");
    }
    for (uint64_t c : group) {
      if (partition->Members(c).empty()) {
        return Status::InvalidArgument(
            "cell " + std::to_string(c) + " contains no domain values");
      }
      if (!seen.insert(c).second) {
        return Status::InvalidArgument(
            "cell groups must be disjoint (cell " + std::to_string(c) +
            " appears twice)");
      }
    }
  }
  // Refined Thm 4.3: no coupled component of the per-cell critical-set
  // analysis may intersect two groups' cell sets. Unpinned queries
  // restrict nothing, so a set with no pinned query is semantically
  // unconstrained and skips the whole constrained path.
  const bool pinned_constraints =
      policy.has_constraints() && policy.constraints().AnyPinned();
  if (pinned_constraints) {
    BLOWFISH_ASSIGN_OR_RETURN(
        bool valid,
        ConstrainedParallelCellsValid(policy, cell_groups, max_edges));
    if (!valid) {
      return Status::FailedPrecondition(
          "policy constraints couple cells across groups (per-cell "
          "critical sets, Thm 4.3); parallel composition does not apply");
    }
  }

  // Constrained noise scale: the UNION-cells sensitivity, shared by
  // every group. Per-group calibration would be unsound — a neighbour
  // step's compensating moves may land in ANY cell (Def 4.1 condition
  // 3(b) does not confine them), so several groups' histograms can
  // change in one step; since the groups' disjoint row sets concatenate
  // to the union-restricted histogram, sum_g eps_g L1_g / S_union <=
  // max_g eps_g, which is exactly the parallel charge below.
  // Unconstrained policies have no compensations (a neighbour is one
  // G^P-edge move, confined to one cell), so each group keeps its own
  // tighter scale.
  double union_sensitivity = 0.0;
  if (pinned_constraints) {
    BLOWFISH_ASSIGN_OR_RETURN(
        union_sensitivity,
        ConstrainedUnionCellsSensitivity(policy, cell_groups, max_edges,
                                         max_pairs,
                                         max_policy_graph_vertices));
  }

  BLOWFISH_ASSIGN_OR_RETURN(Histogram hist, data.CompleteHistogram());
  ParallelCellHistogramResult result;
  result.group_histograms.reserve(cell_groups.size());
  result.group_sensitivities.reserve(cell_groups.size());
  for (size_t g = 0; g < cell_groups.size(); ++g) {
    double sensitivity = union_sensitivity;
    if (!pinned_constraints) {
      BLOWFISH_ASSIGN_OR_RETURN(
          sensitivity,
          ConstrainedCellHistogramSensitivity(policy, cell_groups[g],
                                              max_edges, max_pairs,
                                              max_policy_graph_vertices));
    }
    const std::set<uint64_t> cells(cell_groups[g].begin(),
                                   cell_groups[g].end());
    CellRestrictedHistogramQuery query(*partition, cells);
    std::vector<double> truth = query.Evaluate(hist);
    if (sensitivity == 0.0) {
      result.group_histograms.push_back(std::move(truth));
    } else {
      BLOWFISH_ASSIGN_OR_RETURN(
          std::vector<double> noisy,
          LaplaceRelease(truth, sensitivity, epsilon_per_group[g], rng));
      result.group_histograms.push_back(std::move(noisy));
    }
    result.group_sensitivities.push_back(sensitivity);
  }
  // Free-release convention (matching the engine's QueryOp::Charge):
  // a group whose noise scale is 0 drew no noise and costs nothing.
  const bool all_free =
      std::all_of(result.group_sensitivities.begin(),
                  result.group_sensitivities.end(),
                  [](double s) { return s == 0.0; });
  result.total_epsilon =
      all_free ? 0.0
               : *std::max_element(epsilon_per_group.begin(),
                                   epsilon_per_group.end());
  if (accountant != nullptr && !all_free) {
    BLOWFISH_RETURN_IF_ERROR(accountant->SpendParallel(
        epsilon_per_group, "parallel cell-histogram release"));
  }
  return result;
}

}  // namespace blowfish
