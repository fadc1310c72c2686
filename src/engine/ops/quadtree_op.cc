// `quadtree` — 2-D rectangle range counts via the quadtree decomposition
// of Cormode et al. (Sec 7.2), mech/quadtree.h.
//
//   quadtree eps=0.3 x0=0 x1=3 y0=0 y1=3 [depth=] [label=] [session=]
//
// The rectangle is in inclusive grid coordinates of the 2-attribute
// domain; depth=0 (the default) pads the grid just enough to resolve
// single cells. The Blowfish free-levels optimization rides along: under
// a uniform-grid partition policy G^P whose cells align with quadtree
// nodes, every level at or above the alignment is released exactly and
// only the deeper levels are noised (the spatial analogue of Sec 5's
// "the histogram of P can be released without noise").
//
// Constrained policies are served by group privacy, exactly like
// wavelet_range: a pinned-constrained neighbour step is a chain of at
// most S(h, P) / 2 moves, so the mechanism runs at
// eps' = eps * 2 / S(h, P) — and the free-levels optimization is
// disabled (the mechanism forces exact = 0 for pinned policies, since a
// compensating move is not confined to a partition cell). Unconstrained
// policies have S(h, P) = 2: scale factor 1, bit-identical releases.
//
// The sensitivity is S(h, P) itself — the quadtree consumes the
// complete histogram and every level's count is histogram-linear — so
// the op shares the "h" cache shape with `histogram`:
// ComputeSensitivity is the identical computation (the shape-cache
// contract: equal shapes must mean equal S under every policy).

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sensitivity.h"
#include "engine/ops/query_op.h"
#include "mech/quadtree.h"

namespace blowfish {
namespace {

class QuadtreeOp final : public QueryOp {
 public:
  std::string KindName() const override { return "quadtree"; }
  std::string ExampleArgs() const override {
    return "x0=0 x1=1 y0=0 y1=1";
  }

  Status Parse(KeyValueBag& kv) override {
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("x0", &x0_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("x1", &x1_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("y0", &y0_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("y1", &y1_));
    BLOWFISH_RETURN_IF_ERROR(kv.TakeIndex("depth", &options_.depth));
    if (x0_ > x1_ || y0_ > y1_) {
      return Status::InvalidArgument(
          "empty rectangle (need x0 <= x1 and y0 <= y1) " + kv.context());
    }
    return Status::OK();
  }

  Status Validate(const Policy& policy) const override {
    if (policy.domain().num_attributes() != 2) {
      return Status::InvalidArgument(
          "op 'quadtree' requires a 2-attribute domain");
    }
    return Status::OK();
  }

  StatusOr<std::string> SensitivityShape() const override {
    return std::string("h");
  }

  StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const override {
    // Identical to `histogram` (shared "h" shape): unconstrained closed
    // form, weighted all-pairs chain bound under pinned constraints.
    if (!policy.has_constraints() || !policy.constraints().AnyPinned()) {
      return HistogramSensitivity(policy.graph());
    }
    CompleteHistogramQuery query(policy.domain().size());
    return ConstrainedLinearQuerySensitivity(
        query, policy, env.max_edges, env.max_pairs,
        env.max_policy_graph_vertices);
  }

  StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                        Random rng) const override {
    Rectangle rect;
    rect.lo = {x0_, y0_};
    rect.hi = {x1_, y1_};
    if (ctx.sensitivity == 0.0) {
      // Free release: no pair of P-neighbours changes the histogram, so
      // the exact rectangle count can be published.
      const Domain& dom = ctx.policy.domain();
      double exact = 0.0;
      for (ValueIndex v = 0; v < dom.size(); ++v) {
        if (ctx.hist[v] != 0.0 && rect.Contains(dom, v)) {
          exact += ctx.hist[v];
        }
      }
      return std::vector<double>{exact};
    }
    // Group privacy: at most sensitivity / 2 moves per neighbour step.
    // Unconstrained policies (sensitivity 2) scale by 1 — bit-identical
    // to the pre-constraint behaviour.
    const double epsilon = ctx.sensitivity > 2.0
                               ? ctx.epsilon * (2.0 / ctx.sensitivity)
                               : ctx.epsilon;
    QuadtreeOptions opts = options_;
    opts.caller_calibrated_constraints = ctx.policy.has_constraints();
    BLOWFISH_ASSIGN_OR_RETURN(
        QuadtreeMechanism released,
        QuadtreeMechanism::Release(ctx.hist, ctx.policy, epsilon, opts,
                                   rng));
    BLOWFISH_ASSIGN_OR_RETURN(double answer, released.RangeCount(rect));
    return std::vector<double>{answer};
  }

 private:
  size_t x0_ = 0;
  size_t x1_ = 0;
  size_t y0_ = 0;
  size_t y1_ = 0;
  QuadtreeOptions options_;
};

const QueryOpRegistrar kRegistrar{
    "quadtree", [] { return std::make_unique<QuadtreeOp>(); }};

}  // namespace
}  // namespace blowfish
