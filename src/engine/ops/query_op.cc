#include "engine/ops/query_op.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "util/parse.h"

namespace blowfish {

void KeyValueBag::Add(std::string key, std::string value) {
  items_.emplace_back(std::move(key), std::move(value));
}

std::optional<std::string> KeyValueBag::Take(const std::string& key) {
  std::optional<std::string> value;
  for (auto it = items_.begin(); it != items_.end();) {
    if (it->first == key) {
      value = std::move(it->second);  // repeated keys: last one wins
      it = items_.erase(it);
    } else {
      ++it;
    }
  }
  return value;
}

Status KeyValueBag::TakeDouble(const std::string& key, double* out) {
  std::optional<std::string> value = Take(key);
  if (!value.has_value()) return Status::OK();
  BLOWFISH_ASSIGN_OR_RETURN(
      *out, ParseFiniteDouble(*value, "'" + key + "' " + context_));
  return Status::OK();
}

Status KeyValueBag::TakeIndex(const std::string& key, size_t* out) {
  std::optional<std::string> value = Take(key);
  if (!value.has_value()) return Status::OK();
  BLOWFISH_ASSIGN_OR_RETURN(
      uint64_t parsed,
      ParseNonNegativeInt(*value, "'" + key + "' " + context_));
  *out = static_cast<size_t>(parsed);
  return Status::OK();
}

Status KeyValueBag::TakeIndexList(const std::string& key,
                                  std::vector<uint64_t>* out) {
  std::optional<std::string> value = Take(key);
  if (!value.has_value()) return Status::OK();
  std::istringstream in(*value);
  std::string token;
  while (std::getline(in, token, ',')) {
    BLOWFISH_ASSIGN_OR_RETURN(
        uint64_t parsed,
        ParseNonNegativeInt(token, "'" + key + "' " + context_));
    out->push_back(parsed);
  }
  return Status::OK();
}

Status KeyValueBag::TakeDoubleList(const std::string& key,
                                   std::vector<double>* out) {
  std::optional<std::string> value = Take(key);
  if (!value.has_value()) return Status::OK();
  std::istringstream in(*value);
  std::string token;
  while (std::getline(in, token, ',')) {
    BLOWFISH_ASSIGN_OR_RETURN(
        double parsed, ParseFiniteDouble(token, "'" + key + "' " + context_));
    out->push_back(parsed);
  }
  return Status::OK();
}

Status KeyValueBag::ExpectEmpty(const std::string& kind) const {
  if (items_.empty()) return Status::OK();
  return Status::InvalidArgument("unknown key '" + items_.front().first +
                                 "' for kind '" + kind + "' " + context_);
}

Status QueryOp::Validate(const Policy& policy) const {
  (void)policy;
  return Status::OK();
}

Status QueryOp::ValidateData(const Policy& policy,
                             const Dataset& data) const {
  (void)policy;
  (void)data;
  return Status::OK();
}

double QueryOp::Charge(double sensitivity, double epsilon) const {
  return sensitivity == 0.0 ? 0.0 : epsilon;
}

StatusOr<std::vector<uint64_t>> QueryOp::ParallelCells() const {
  return Status::FailedPrecondition(
      "kind '" + KindName() +
      "' cannot prove structural disjointness (only cell-restricted "
      "histograms under a partition secret graph qualify)");
}

Status ConstrainedPolicyUnsupported(const QueryOp& op, const Policy& policy) {
  return Status::Unimplemented(
      "op '" + op.KindName() +
      "' does not support constrained policies: refusing policy with " +
      std::to_string(policy.constraints().size()) +
      " count constraint(s) on secret graph '" + policy.graph().name() +
      "'");
}

QueryOpRegistry& QueryOpRegistry::Global() {
  static QueryOpRegistry* registry = new QueryOpRegistry();
  return *registry;
}

void QueryOpRegistry::Register(const std::string& kind, Factory factory) {
  std::lock_guard<std::mutex> lock(mu_);
  const bool inserted =
      factories_.emplace(kind, std::move(factory)).second;
  // Two ops claiming one kind name is a build mistake, not a runtime
  // condition; fail loudly at startup.
  assert(inserted && "duplicate QueryOp kind registration");
  (void)inserted;
}

StatusOr<std::unique_ptr<QueryOp>> QueryOpRegistry::Create(
    const std::string& kind) const {
  Factory factory;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(kind);
    if (it == factories_.end()) {
      return Status::InvalidArgument("unknown query kind '" + kind +
                                     "' (known: " + KnownKindsStringLocked() +
                                     ")");
    }
    factory = it->second;
  }
  return factory();
}

bool QueryOpRegistry::Has(const std::string& kind) const {
  std::lock_guard<std::mutex> lock(mu_);
  return factories_.count(kind) > 0;
}

std::vector<std::string> QueryOpRegistry::KnownKinds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> kinds;
  kinds.reserve(factories_.size());
  for (const auto& [kind, factory] : factories_) kinds.push_back(kind);
  return kinds;  // std::map iteration is already sorted
}

std::string QueryOpRegistry::KnownKindsString() const {
  std::lock_guard<std::mutex> lock(mu_);
  return KnownKindsStringLocked();
}

std::string QueryOpRegistry::KnownKindsStringLocked() const {
  std::string out;
  for (const auto& [kind, factory] : factories_) {
    if (!out.empty()) out += ", ";
    out += kind;
  }
  return out;
}

QueryOpRegistrar::QueryOpRegistrar(const std::string& kind,
                                   QueryOpRegistry::Factory factory) {
  QueryOpRegistry::Global().Register(kind, std::move(factory));
}

}  // namespace blowfish
