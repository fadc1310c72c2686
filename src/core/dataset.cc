#include "core/dataset.h"

#include <string>
#include <utility>

namespace blowfish {

StatusOr<Dataset> Dataset::Create(std::shared_ptr<const Domain> domain,
                                  std::vector<ValueIndex> tuples) {
  for (ValueIndex t : tuples) {
    if (t >= domain->size()) {
      return Status::OutOfRange("tuple value " + std::to_string(t) +
                                " outside domain of size " +
                                std::to_string(domain->size()));
    }
  }
  return Dataset(std::move(domain), std::move(tuples));
}

StatusOr<Dataset> Dataset::WithTuple(size_t id, ValueIndex value) const {
  if (id >= tuples_.size()) {
    return Status::OutOfRange("tuple id out of range");
  }
  if (value >= domain_->size()) {
    return Status::OutOfRange("value outside domain");
  }
  std::vector<ValueIndex> tuples = tuples_;
  tuples[id] = value;
  return Dataset(domain_, std::move(tuples));
}

StatusOr<Histogram> Dataset::CompleteHistogram() const {
  constexpr uint64_t kMaxMaterializedDomain = uint64_t{1} << 26;
  if (domain_->size() > kMaxMaterializedDomain) {
    return Status::ResourceExhausted(
        "domain too large to materialize a complete histogram");
  }
  Histogram h(domain_->size());
  for (ValueIndex t : tuples_) h.Add(t);
  return h;
}

std::vector<std::vector<double>> Dataset::Points() const {
  std::vector<std::vector<double>> points;
  points.reserve(tuples_.size());
  for (ValueIndex t : tuples_) points.push_back(domain_->Point(t));
  return points;
}

}  // namespace blowfish
