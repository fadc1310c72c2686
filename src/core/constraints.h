// Publicly known constraints (Sec 3.2 and Sec 8).
//
// Blowfish models adversarial background knowledge as deterministic
// constraints Q that restrict the set of possible databases to I_Q. The
// paper's main tractable subclass is *count query constraints*
// (Eqn 16): a conjunction of (predicate, answer) pairs. Marginals
// (Def 8.4) and rectangle range counts (Sec 8.2.3) lower to sets of count
// queries.
//
// The lift/lower analysis (Def 8.1) and the sparsity test (Def 8.2) live
// here; the policy graph built from them is in core/policy_graph.h.

#ifndef BLOWFISH_CORE_CONSTRAINTS_H_
#define BLOWFISH_CORE_CONSTRAINTS_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/domain.h"
#include "core/secret_graph.h"
#include "util/status.h"

namespace blowfish {

/// A count query q_phi: counts tuples whose value satisfies a predicate.
class CountQuery {
 public:
  CountQuery(std::string name, std::function<bool(ValueIndex)> predicate)
      : name_(std::move(name)), predicate_(std::move(predicate)) {}

  const std::string& name() const { return name_; }
  bool Matches(ValueIndex x) const { return predicate_(x); }

  /// q_phi(D) = |{t in D : phi(t)}|.
  uint64_t Evaluate(const Dataset& dataset) const;

  /// Lift / lower of Def 8.1 for the ordered pair (x, y): changing a tuple
  /// from x to y lifts q iff !phi(x) && phi(y), lowers q iff
  /// phi(x) && !phi(y).
  bool LiftedBy(ValueIndex x, ValueIndex y) const {
    return !Matches(x) && Matches(y);
  }
  bool LoweredBy(ValueIndex x, ValueIndex y) const {
    return Matches(x) && !Matches(y);
  }

  /// A secret pair (x, y) is *critical* to q (Sec 4.1) iff changing a tuple
  /// between x and y changes q's answer — i.e. phi(x) != phi(y).
  bool CriticalPair(ValueIndex x, ValueIndex y) const {
    return Matches(x) != Matches(y);
  }

 private:
  std::string name_;
  std::function<bool(ValueIndex)> predicate_;
};

/// An axis-aligned rectangle R = [l1,u1] x ... x [lk,uk] on a grid domain
/// (Sec 8.2.3).
struct Rectangle {
  std::vector<uint64_t> lo;  // inclusive
  std::vector<uint64_t> hi;  // inclusive

  bool Contains(const Domain& domain, ValueIndex x) const;

  /// True iff the rectangle is a point query (lo == hi on every axis).
  bool IsPoint() const;

  /// Minimum scaled-L1 distance between two rectangles,
  /// d(X, Y) = min_{x in X, y in Y} d(x, y); 0 if they intersect.
  double MinDistance(const Domain& domain, const Rectangle& other) const;

  /// True iff the rectangles share at least one grid point.
  bool Intersects(const Rectangle& other) const;
};

/// A d-dimensional marginal C (Def 8.4): the projection of the database
/// onto a subset of attributes with per-cell counts.
struct Marginal {
  std::vector<size_t> attribute_indices;

  /// size(C): the number of cells = product of the projected cardinalities,
  /// i.e. the number of count queries the marginal induces.
  uint64_t Size(const Domain& domain) const;

  /// True iff the two marginals share no attribute ([Ci] cap [Cj] = empty),
  /// the hypothesis of Thm 8.5.
  bool DisjointFrom(const Marginal& other) const;
};

/// A conjunction of count-query constraints Q = {q_phi1, ..., q_phip},
/// optionally with pinned answers (needed to *test* membership in I_Q; the
/// sensitivity analysis itself never looks at the answers — Sec 8.1).
class ConstraintSet {
 public:
  ConstraintSet() = default;

  /// Adds a count query without a pinned answer.
  void Add(CountQuery query);

  /// Adds a count query with the publicly known answer.
  void AddWithAnswer(CountQuery query, uint64_t answer);

  /// Appends the size(C) per-cell count queries of a marginal.
  /// If `answers_from` is non-null, answers are pinned to that dataset's
  /// marginal (convenience for building a consistent I_Q in tests).
  Status AddMarginal(const std::shared_ptr<const Domain>& domain,
                     const Marginal& marginal,
                     const Dataset* answers_from = nullptr);

  /// Appends one range-count query per rectangle and remembers the
  /// rectangles for the Sec 8.2.3 analysis.
  Status AddRectangles(const std::shared_ptr<const Domain>& domain,
                       std::vector<Rectangle> rectangles,
                       const Dataset* answers_from = nullptr);

  size_t size() const { return queries_.size(); }
  bool empty() const { return queries_.empty(); }
  const CountQuery& query(size_t i) const { return queries_[i]; }
  const std::vector<Rectangle>& rectangles() const { return rectangles_; }

  /// True iff query i has a publicly known answer. Only pinned queries
  /// restrict I_Q (SatisfiedBy ignores the rest), so only they can force
  /// compensating moves in a neighbour step — the weighted policy-graph
  /// analysis classifies moves against pinned queries alone.
  bool pinned(size_t i) const { return answers_[i].has_value(); }

  /// True iff any query is pinned — i.e. the set actually restricts I_Q.
  /// A set of only unpinned queries is semantically unconstrained: the
  /// engine's constrained machinery (union-scale parallel groups, the
  /// critical-set predicate) keys off this, not off size().
  bool AnyPinned() const {
    for (const auto& a : answers_) {
      if (a.has_value()) return true;
    }
    return false;
  }

  /// True iff D |= Q: every pinned answer matches. Queries without answers
  /// are vacuously satisfied (they constrain nothing until pinned).
  bool SatisfiedBy(const Dataset& dataset) const;

  /// Indices of queries lifted / lowered by the ordered change x -> y.
  std::vector<size_t> Lifted(ValueIndex x, ValueIndex y) const;
  std::vector<size_t> Lowered(ValueIndex x, ValueIndex y) const;

  /// The same classification restricted to pinned queries.
  std::vector<size_t> LiftedPinned(ValueIndex x, ValueIndex y) const;
  std::vector<size_t> LoweredPinned(ValueIndex x, ValueIndex y) const;

  /// Def 8.2 sparsity w.r.t. a secret graph: every edge (in either
  /// orientation) lifts at most one query and lowers at most one query.
  /// Enumerates up to `max_edges` edges; structured cases (marginals over a
  /// full/attr graph) should prefer the closed-form theorems in
  /// core/policy_graph.h.
  StatusOr<bool> IsSparse(const SecretGraph& graph, uint64_t max_edges) const;

 private:
  std::vector<CountQuery> queries_;
  std::vector<std::optional<uint64_t>> answers_;
  std::vector<Rectangle> rectangles_;
};

/// Per-cell critical sets under a partition secret graph G^P (Sec 4.1
/// refined). Under G^P every edge lives inside one partition cell, so a
/// constraint's critical set projects to a set of *cells*: cell c is
/// critical for q iff some edge inside c flips q's predicate. Two cells
/// are *coupled* when a constraint is critical on both (a move in one
/// can force a compensating move in the other to stay inside I_Q);
/// coupled components are the transitive closure. A minimal
/// (G, Q)-neighbour step is confined to a single coupled component:
/// restricting its moves to one component yields a database that still
/// satisfies every constraint (each constraint's critical cells lie in
/// one component), contradicting minimality (Def 4.1, condition 3) if a
/// second component were touched. This is what makes parallel
/// composition over cell-disjoint queries provable on constrained
/// policies (CellGroupsSeparateComponents below).
struct CellCriticalSets {
  /// critical_cells[i]: sorted cells on which constraint i has a
  /// critical edge (empty iff crit(q_i) is empty under G^P; always
  /// empty for unpinned queries, which restrict nothing).
  std::vector<std::vector<uint64_t>> critical_cells;
  /// Coupled components, each a sorted cell list; deterministic order
  /// (by smallest cell).
  std::vector<std::vector<uint64_t>> component_cells;
};

/// Computes the per-cell critical sets of `constraints` w.r.t. a
/// partition secret graph. Enumerates at most `max_edges` edges.
StatusOr<CellCriticalSets> ComputeCellCriticalSets(
    const ConstraintSet& constraints, const PartitionGraph& graph,
    uint64_t max_edges);

/// Refined Thm 4.3 for cell-restricted queries under G^P: true iff no
/// coupled component of `critical_sets` intersects two members' cell
/// sets, the condition under which a parallel group of pairwise-disjoint
/// cell sets costs max(eps). The engine memoizes the critical sets per
/// policy and calls this per group.
bool CellGroupsSeparateComponents(
    const CellCriticalSets& critical_sets,
    const std::vector<std::vector<uint64_t>>& member_cells);

}  // namespace blowfish

#endif  // BLOWFISH_CORE_CONSTRAINTS_H_
