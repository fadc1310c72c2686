#include "core/constraints.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <set>

namespace blowfish {

uint64_t CountQuery::Evaluate(const Dataset& dataset) const {
  uint64_t count = 0;
  for (ValueIndex t : dataset.tuples()) {
    if (Matches(t)) ++count;
  }
  return count;
}

// ---------------------------------------------------------------------------
// Rectangle

bool Rectangle::Contains(const Domain& domain, ValueIndex x) const {
  assert(lo.size() == domain.num_attributes());
  assert(hi.size() == domain.num_attributes());
  for (size_t i = 0; i < lo.size(); ++i) {
    uint64_t c = domain.Coordinate(x, i);
    if (c < lo[i] || c > hi[i]) return false;
  }
  return true;
}

bool Rectangle::IsPoint() const {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (lo[i] != hi[i]) return false;
  }
  return true;
}

double Rectangle::MinDistance(const Domain& domain,
                              const Rectangle& other) const {
  assert(lo.size() == other.lo.size());
  double total = 0.0;
  for (size_t i = 0; i < lo.size(); ++i) {
    uint64_t gap = 0;
    if (hi[i] < other.lo[i]) {
      gap = other.lo[i] - hi[i];
    } else if (other.hi[i] < lo[i]) {
      gap = lo[i] - other.hi[i];
    }
    total += domain.attribute(i).scale * static_cast<double>(gap);
  }
  return total;
}

bool Rectangle::Intersects(const Rectangle& other) const {
  for (size_t i = 0; i < lo.size(); ++i) {
    if (hi[i] < other.lo[i] || other.hi[i] < lo[i]) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Marginal

uint64_t Marginal::Size(const Domain& domain) const {
  uint64_t size = 1;
  for (size_t attr : attribute_indices) {
    size *= domain.attribute(attr).cardinality;
  }
  return size;
}

bool Marginal::DisjointFrom(const Marginal& other) const {
  for (size_t a : attribute_indices) {
    for (size_t b : other.attribute_indices) {
      if (a == b) return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// ConstraintSet

void ConstraintSet::Add(CountQuery query) {
  queries_.push_back(std::move(query));
  answers_.push_back(std::nullopt);
}

void ConstraintSet::AddWithAnswer(CountQuery query, uint64_t answer) {
  queries_.push_back(std::move(query));
  answers_.push_back(answer);
}

Status ConstraintSet::AddMarginal(const std::shared_ptr<const Domain>& domain,
                                  const Marginal& marginal,
                                  const Dataset* answers_from) {
  if (marginal.attribute_indices.empty()) {
    return Status::InvalidArgument("marginal has no attributes");
  }
  for (size_t attr : marginal.attribute_indices) {
    if (attr >= domain->num_attributes()) {
      return Status::OutOfRange("marginal attribute index out of range");
    }
  }
  // Enumerate all cells (a_{i1}, ..., a_{id}) of the projected domain.
  const std::vector<size_t>& attrs = marginal.attribute_indices;
  std::vector<uint64_t> cell(attrs.size(), 0);
  while (true) {
    std::string name = "marginal[";
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i > 0) name += ",";
      name += domain->attribute(attrs[i]).name + "=" +
              std::to_string(cell[i]);
    }
    name += "]";
    std::vector<size_t> attrs_copy = attrs;
    std::vector<uint64_t> cell_copy = cell;
    CountQuery q(std::move(name),
                 [domain, attrs_copy, cell_copy](ValueIndex x) {
                   for (size_t i = 0; i < attrs_copy.size(); ++i) {
                     if (domain->Coordinate(x, attrs_copy[i]) != cell_copy[i]) {
                       return false;
                     }
                   }
                   return true;
                 });
    if (answers_from != nullptr) {
      uint64_t answer = q.Evaluate(*answers_from);
      AddWithAnswer(std::move(q), answer);
    } else {
      Add(std::move(q));
    }
    // Advance the cell odometer.
    size_t i = attrs.size();
    while (i > 0) {
      --i;
      if (++cell[i] < domain->attribute(attrs[i]).cardinality) break;
      cell[i] = 0;
      if (i == 0) return Status::OK();
    }
  }
}

Status ConstraintSet::AddRectangles(
    const std::shared_ptr<const Domain>& domain,
    std::vector<Rectangle> rectangles, const Dataset* answers_from) {
  for (const Rectangle& r : rectangles) {
    if (r.lo.size() != domain->num_attributes() ||
        r.hi.size() != domain->num_attributes()) {
      return Status::InvalidArgument("rectangle arity mismatch");
    }
    for (size_t i = 0; i < r.lo.size(); ++i) {
      if (r.lo[i] > r.hi[i] ||
          r.hi[i] >= domain->attribute(i).cardinality) {
        return Status::OutOfRange("rectangle bounds invalid");
      }
    }
  }
  for (size_t ri = 0; ri < rectangles.size(); ++ri) {
    Rectangle rect = rectangles[ri];
    CountQuery q("rect" + std::to_string(rectangles_.size() + ri),
                 [domain, rect](ValueIndex x) {
                   return rect.Contains(*domain, x);
                 });
    if (answers_from != nullptr) {
      uint64_t answer = q.Evaluate(*answers_from);
      AddWithAnswer(std::move(q), answer);
    } else {
      Add(std::move(q));
    }
  }
  rectangles_.insert(rectangles_.end(), rectangles.begin(), rectangles.end());
  return Status::OK();
}

bool ConstraintSet::SatisfiedBy(const Dataset& dataset) const {
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (answers_[i].has_value() &&
        queries_[i].Evaluate(dataset) != *answers_[i]) {
      return false;
    }
  }
  return true;
}

std::vector<size_t> ConstraintSet::Lifted(ValueIndex x, ValueIndex y) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].LiftedBy(x, y)) out.push_back(i);
  }
  return out;
}

std::vector<size_t> ConstraintSet::Lowered(ValueIndex x, ValueIndex y) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (queries_[i].LoweredBy(x, y)) out.push_back(i);
  }
  return out;
}

std::vector<size_t> ConstraintSet::LiftedPinned(ValueIndex x,
                                                ValueIndex y) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (answers_[i].has_value() && queries_[i].LiftedBy(x, y)) {
      out.push_back(i);
    }
  }
  return out;
}

std::vector<size_t> ConstraintSet::LoweredPinned(ValueIndex x,
                                                 ValueIndex y) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < queries_.size(); ++i) {
    if (answers_[i].has_value() && queries_[i].LoweredBy(x, y)) {
      out.push_back(i);
    }
  }
  return out;
}

StatusOr<bool> ConstraintSet::IsSparse(const SecretGraph& graph,
                                       uint64_t max_edges) const {
  bool sparse = true;
  Status status = graph.ForEachEdge(
      [this, &sparse](ValueIndex x, ValueIndex y) {
        if (!sparse) return;
        // Both orientations; Lifted(x,y) == Lowered(y,x), so checking one
        // direction's lift and lower covers the reverse direction too.
        if (Lifted(x, y).size() > 1 || Lowered(x, y).size() > 1) {
          sparse = false;
        }
      },
      max_edges);
  BLOWFISH_RETURN_IF_ERROR(status);
  return sparse;
}

// ---------------------------------------------------------------------------
// Per-cell critical sets

std::optional<size_t> CellCriticalSets::ComponentOfCell(uint64_t cell) const {
  for (size_t k = 0; k < component_cells.size(); ++k) {
    if (std::binary_search(component_cells[k].begin(),
                           component_cells[k].end(), cell)) {
      return k;
    }
  }
  return std::nullopt;
}

StatusOr<CellCriticalSets> ComputeCellCriticalSets(
    const ConstraintSet& constraints, const PartitionGraph& graph,
    uint64_t max_edges) {
  std::vector<std::set<uint64_t>> crit(constraints.size());
  Status st = graph.ForEachEdge(
      [&](ValueIndex x, ValueIndex y) {
        // Every G^P edge lives inside one cell. Unpinned queries do not
        // restrict I_Q, so they can neither force a compensation nor
        // couple cells — their critical sets stay empty and they join
        // no component (an all-unpinned set yields no components at
        // all, matching the unconstrained neighbour semantics).
        const uint64_t cell = graph.CellOf(x);
        for (size_t i = 0; i < constraints.size(); ++i) {
          if (!constraints.pinned(i)) continue;
          if (constraints.query(i).CriticalPair(x, y)) crit[i].insert(cell);
        }
      },
      max_edges);
  BLOWFISH_RETURN_IF_ERROR(st);

  CellCriticalSets out;
  out.critical_cells.reserve(crit.size());
  for (const std::set<uint64_t>& cells : crit) {
    out.critical_cells.emplace_back(cells.begin(), cells.end());
  }

  // Union-find over cells: a constraint couples all of its critical
  // cells together.
  std::map<uint64_t, uint64_t> parent;
  std::function<uint64_t(uint64_t)> find = [&](uint64_t c) {
    while (parent[c] != c) {
      parent[c] = parent[parent[c]];
      c = parent[c];
    }
    return c;
  };
  for (const std::vector<uint64_t>& cells : out.critical_cells) {
    for (uint64_t c : cells) {
      if (parent.find(c) == parent.end()) parent[c] = c;
    }
    for (size_t j = 1; j < cells.size(); ++j) {
      parent[find(cells[j])] = find(cells[0]);
    }
  }
  // Components in deterministic order: by smallest member cell (the
  // std::map iterates cells in increasing order).
  std::map<uint64_t, size_t> component_of_root;
  for (const auto& [cell, unused] : parent) {
    (void)unused;
    const uint64_t root = find(cell);
    auto [it, inserted] =
        component_of_root.emplace(root, out.component_cells.size());
    if (inserted) {
      out.component_cells.emplace_back();
      out.component_queries.emplace_back();
    }
    out.component_cells[it->second].push_back(cell);
  }
  for (size_t i = 0; i < out.critical_cells.size(); ++i) {
    if (out.critical_cells[i].empty()) continue;
    const size_t k = component_of_root.at(find(out.critical_cells[i][0]));
    out.component_queries[k].push_back(i);
  }
  for (std::vector<uint64_t>& cells : out.component_cells) {
    std::sort(cells.begin(), cells.end());
  }
  for (std::vector<size_t>& queries : out.component_queries) {
    std::sort(queries.begin(), queries.end());
  }
  return out;
}

bool CellGroupsSeparateComponents(
    const CellCriticalSets& critical_sets,
    const std::vector<std::vector<uint64_t>>& member_cells) {
  for (const std::vector<uint64_t>& component :
       critical_sets.component_cells) {
    size_t touched = 0;
    for (const std::vector<uint64_t>& cells : member_cells) {
      bool intersects = false;
      for (uint64_t c : cells) {
        if (std::binary_search(component.begin(), component.end(), c)) {
          intersects = true;
          break;
        }
      }
      if (intersects && ++touched > 1) return false;
    }
  }
  return true;
}

}  // namespace blowfish
