#include "engine/sensitivity_cache.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "core/constraints.h"
#include "util/atomic_file.h"
#include "util/parse.h"

namespace blowfish {

namespace {

constexpr char kCacheFileHeader[] = "# blowfish-sensitivity-cache v1";

std::string MakeKey(const std::string& policy_fp,
                    const std::string& query_shape) {
  return policy_fp + "\x1f" + query_shape;
}

}  // namespace

StatusOr<double> SensitivityCache::GetOrCompute(
    const std::string& policy_fp, const std::string& query_shape,
    const std::function<StatusOr<double>()>& compute, bool* was_hit) {
  const std::string key = MakeKey(policy_fp, query_shape);
  if (was_hit != nullptr) *was_hit = false;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      ++stats_.hits;
      hits_total_->Increment();
      if (was_hit != nullptr) *was_hit = true;
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    if (in_flight_.count(key) == 0) break;
    // Someone is computing this key right now; wait for their result
    // rather than duplicating an NP-hard computation. If their compute
    // errored (nothing cached), the next iteration claims the key.
    in_flight_cv_.wait(lock);
  }
  in_flight_.insert(key);
  ++stats_.misses;
  misses_total_->Increment();
  lock.unlock();
  // The expensive part runs without the lock: one tenant's cold
  // policy-graph bound must not block other keys' hits and computes.
  StatusOr<double> computed = [&]() {
    obs::ScopedLatencyTimer timer(compute_us_);
    return compute();
  }();
  lock.lock();
  in_flight_.erase(key);
  in_flight_cv_.notify_all();
  if (!computed.ok()) return computed.status();
  PutLocked(key, *computed);
  return *computed;
}

bool SensitivityCache::Contains(const std::string& policy_fp,
                                const std::string& query_shape) const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.count(MakeKey(policy_fp, query_shape)) > 0;
}

SensitivityCache::Stats SensitivityCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t SensitivityCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

void SensitivityCache::PutLocked(const std::string& key,
                                 double sensitivity) {
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->second = sensitivity;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (capacity_ == 0) return;
  if (lru_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
    evictions_total_->Increment();
  }
  lru_.emplace_front(key, sensitivity);
  index_[key] = lru_.begin();
}

Status SensitivityCache::Save(std::ostream& out) const {
  // Snapshot under the lock, write outside it: disk I/O must not stall
  // every tenant's admission path on the shared cache mutex.
  std::vector<Entry> snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot.assign(lru_.rbegin(), lru_.rend());
  }
  out << kCacheFileHeader << "\n";
  // Least recently used first: Load inserts each line at the LRU front,
  // so the last line written (the hottest entry) ends up hottest again.
  for (const Entry& entry : snapshot) {
    if (entry.first.find('\n') != std::string::npos ||
        entry.first.find('\t') != std::string::npos) {
      return Status::Internal(
          "cache key contains a tab or newline and cannot be serialized");
    }
    std::string line;
    AppendDouble(&line, entry.second);
    line += '\t';
    line += entry.first;
    line += '\n';
    out << line;
  }
  if (!out) return Status::Internal("write to cache stream failed");
  return Status::OK();
}

Status SensitivityCache::SaveToFile(const std::string& path) const {
  // Locked write-then-rename (util/atomic_file.h): a Save that fails
  // midway must not have truncated the previous good cache file, and
  // concurrent hosts sharing one warm file must not interleave writes.
  return AtomicWriteFile(
      path, [this](std::ostream& out) { return Save(out); });
}

Status SensitivityCache::Load(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kCacheFileHeader) {
    return Status::InvalidArgument(
        "not a sensitivity cache file (missing '" +
        std::string(kCacheFileHeader) + "' header)");
  }
  // Parse the whole file before touching the cache, so a file truncated
  // mid-write (e.g. a crash during Save) is rejected without leaving the
  // cache half-merged or evicting entries for garbage.
  std::vector<Entry> parsed;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const size_t tab = line.find('\t');
    if (tab == std::string::npos) {
      return Status::InvalidArgument("cache line " + std::to_string(line_no) +
                                     ": expected <value>\\t<key>");
    }
    const std::string value_text = line.substr(0, tab);
    auto value = ParseFiniteDouble(
        value_text, "cache line " + std::to_string(line_no));
    if (!value.ok()) return value.status();
    // A sensitivity is a nonnegative real; inf/NaN are rejected above,
    // and a negative value could only come from corruption.
    if (*value < 0.0) {
      return Status::InvalidArgument("cache line " + std::to_string(line_no) +
                                     ": negative sensitivity '" +
                                     value_text + "'");
    }
    parsed.emplace_back(line.substr(tab + 1), *value);
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& entry : parsed) PutLocked(entry.first, entry.second);
  return Status::OK();
}

Status SensitivityCache::LoadFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  return Load(file);
}

std::string SensitivityCache::PolicyFingerprint(const Policy& policy,
                                                const std::string& tag) {
  std::ostringstream out;
  out << "T{";
  for (const Attribute& a : policy.domain().attributes()) {
    out << a.name << ":" << a.cardinality << ":" << a.scale << ";";
  }
  out << "}G{" << policy.graph().name() << "}Q{"
      << policy.constraints().size();
  for (const Rectangle& r : policy.constraints().rectangles()) {
    out << "[";
    for (uint64_t v : r.lo) out << v << ",";
    out << ":";
    for (uint64_t v : r.hi) out << v << ",";
    out << "]";
  }
  out << "}";
  if (!policy.constraints().empty()) {
    // Constraint signature: FNV-1a over the count-query names and their
    // pinned-ness, so two constraint sets of equal size (e.g. the [A]
    // vs [B] marginals of the same domain) occupy distinct cache
    // entries. Marginal and rectangle constraints get structured names
    // from their builders. Answer VALUES are excluded because S(f, P)
    // never depends on them (Sec 8.1), but answer PRESENCE is folded in:
    // the weighted policy-graph analysis classifies moves against
    // pinned queries only, so the pinned and unpinned variants of one
    // constraint set have different sensitivities and must not share an
    // entry. Hashed rather than inlined to keep keys serializable (Save
    // rejects tabs/newlines) and bounded in length.
    uint64_t h = 14695981039346656037ull;
    for (size_t i = 0; i < policy.constraints().size(); ++i) {
      for (char c : policy.constraints().query(i).name()) {
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
      }
      h = (h ^ (policy.constraints().pinned(i) ? uint64_t{0x70}
                                               : uint64_t{0x75})) *
          1099511628211ull;  // pinned marker
      h = (h ^ uint64_t{0x1f}) * 1099511628211ull;  // name separator
    }
    out << "C{" << std::hex << h << "}";
  }
  if (!tag.empty()) out << "#" << tag;
  return out.str();
}

}  // namespace blowfish
