// `cell_histogram` — the complete histogram restricted to a set of G^P
// partition cells.
//
//   cell_histogram eps=0.2 cells=0,3,7 [group=] [label=] [session=]
//
// Under a partition secret graph an individual's cell is public, so
// queries over pairwise-disjoint cell sets touch disjoint individuals —
// this is the op that makes parallel composition (Thm 4.2) provable,
// via ParallelCells(). Constrained policies are served too: each move
// of a (G, Q)-neighbour step pays 2 iff its cell is in the set, so the
// sensitivity is the weighted Thm 8.2 bound of
// ConstrainedCellHistogramSensitivity, and the engine admits a parallel
// group on such a policy by noising every member at the sensitivity of
// the union of the members' cells (engine/release_engine.h).

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/secret_graph.h"
#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/laplace.h"

namespace blowfish {
namespace {

class CellHistogramOp final : public QueryOp {
 public:
  std::string KindName() const override { return "cell_histogram"; }
  std::string ExampleArgs() const override { return "cells=0,1"; }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndexList("cells", &cells_));
    if (cells_.empty()) {
      return Status::InvalidArgument("cell_histogram requires cells " +
                                     kv.context());
    }
    return Status::OK();
  }

  Status Validate(const Policy& policy) const override {
    const auto* partition =
        dynamic_cast<const PartitionGraph*>(&policy.graph());
    if (partition == nullptr) {
      return Status::FailedPrecondition(
          "cell_histogram requires a partition (G^P) secret graph");
    }
    // The smallest unknown id is named, whatever order the request used.
    const std::set<uint64_t> cells(cells_.begin(), cells_.end());
    for (uint64_t cell : cells) {
      if (partition->Members(cell).empty()) {
        return Status::InvalidArgument(
            "cell " + std::to_string(cell) +
            " contains no domain values (unknown partition cell?)");
      }
    }
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    std::set<uint64_t> sorted(cells_.begin(), cells_.end());
    std::ostringstream out;
    out << "h_cells{";
    for (uint64_t c : sorted) out << c << ",";
    out << "}";
    return out.str();
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    // Handles constrained and unconstrained policies alike; for the
    // latter it is the closed form read off the cell index.
    return ConstrainedCellHistogramSensitivity(
        policy, cells_, env.max_edges, env.max_pairs,
        env.max_policy_graph_vertices);
  }

  StatusOr<std::vector<uint64_t>> ParallelCells() const override {
    // Distinct cells: `cells=0,0` reads cell 0 once, so it must not
    // count as overlapping itself in the group's disjointness check.
    const std::set<uint64_t> cells(cells_.begin(), cells_.end());
    return std::vector<uint64_t>(cells.begin(), cells.end());
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    const auto* partition =
        dynamic_cast<const PartitionGraph*>(&ctx.policy.graph());
    if (partition == nullptr) {
      return Status::FailedPrecondition(
          "cell_histogram requires a partition (G^P) secret graph");
    }
    std::set<uint64_t> cells(cells_.begin(), cells_.end());
    CellRestrictedHistogramQuery query(*partition, cells);
    std::vector<double> truth = query.Evaluate(ctx.hist);
    if (ctx.sensitivity == 0.0) return truth;
    return LaplaceRelease(truth, ctx.sensitivity, ctx.epsilon, rng);
  }

 private:
  std::vector<uint64_t> cells_;
};

const QueryOpRegistrar kRegistrar{
    "cell_histogram", [] { return std::make_unique<CellHistogramOp>(); }};

}  // namespace
}  // namespace blowfish
