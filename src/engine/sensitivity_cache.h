// Memoized policy-specific sensitivity for the serving layer.
//
// Sensitivity is the expensive half of every Blowfish release: the
// Thm 8.2 policy-graph alpha/xi bounds are exponential DFS (the problem is
// NP-hard, Thm 8.1), and even the generic unconstrained engine enumerates
// secret-graph edges. But S(f, P) depends only on the (policy, query
// shape) pair — never on the data or epsilon — so a serving system can
// compute each value once and reuse it for the lifetime of the policy.
// This cache is a mutex-guarded LRU map from (policy fingerprint, query
// shape) to S(f, P), shared by all worker threads of a ReleaseEngine.

#ifndef BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_
#define BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <list>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>

#include "core/policy.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blowfish {

/// Mutex-guarded LRU cache of (policy, query-shape) -> S(f, P).
class SensitivityCache {
 public:
  /// `metrics` is the registry hit/miss/eviction counters and the
  /// NP-hard compute-time histogram report into; nullptr = process-wide
  /// default. The internal Stats remain authoritative for exact
  /// per-cache assertions; the obs mirrors exist so a daemon exposes
  /// them over STATS without reaching into the cache.
  explicit SensitivityCache(size_t capacity = 128,
                            obs::MetricsRegistry* metrics = nullptr)
      : capacity_(capacity) {
    if (metrics == nullptr) metrics = obs::MetricsRegistry::Global();
    hits_total_ = metrics->GetCounter("sensitivity_cache_hits_total");
    misses_total_ = metrics->GetCounter("sensitivity_cache_misses_total");
    evictions_total_ =
        metrics->GetCounter("sensitivity_cache_evictions_total");
    compute_us_ = metrics->GetHistogram("sensitivity_cache_compute_us");
  }

  struct Stats {
    uint64_t hits = 0;
    /// Misses == number of times `compute` actually ran.
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Returns the cached sensitivity for (policy_fp, query_shape), or runs
  /// `compute`, caches its value, and returns it. Errors from `compute`
  /// are returned and NOT cached (a transient ResourceExhausted should not
  /// poison the key). The compute runs *outside* the cache lock with a
  /// per-key in-flight marker: each key is still computed exactly once
  /// under concurrent traffic (duplicate requesters wait for the
  /// in-flight result), but a slow NP-hard computation for one key never
  /// blocks hits or computes for other keys — essential now that one
  /// cache is shared by every tenant of an EngineHost. Keep compute
  /// deterministic and side-effect free. `was_hit` (optional) reports
  /// whether this call was served from the cache, decided under the
  /// cache's own lock — a separate Contains() probe would race other
  /// engines sharing the cache.
  StatusOr<double> GetOrCompute(
      const std::string& policy_fp, const std::string& query_shape,
      const std::function<StatusOr<double>()>& compute,
      bool* was_hit = nullptr);

  /// Whether the key is currently cached (does not touch LRU order).
  bool Contains(const std::string& policy_fp,
                const std::string& query_shape) const;

  Stats stats() const;
  size_t size() const;
  size_t capacity() const { return capacity_; }
  void Clear();

  /// Text serialization, so a restarted process starts warm instead of
  /// re-running the NP-hard bounds. Format: a version header, then one
  /// `<value>\t<key>` line per entry, least recently used first (so Load,
  /// which inserts in line order at the LRU front, reproduces the
  /// recency order). Values are shortest round-trip text (AppendDouble,
  /// util/parse.h); files of older 17-significant-digit text load to the
  /// same bits.
  Status Save(std::ostream& out) const;
  Status SaveToFile(const std::string& path) const;

  /// Merges a previously saved cache into this one (existing keys are
  /// overwritten; capacity eviction applies). Rejects files that do not
  /// start with the version header.
  Status Load(std::istream& in);
  Status LoadFromFile(const std::string& path);

  /// A stable fingerprint of the policy for use as a cache key: domain
  /// attributes (name/cardinality/scale), secret-graph name, and the
  /// constraint signature (count, rectangle coordinates, and a hash of
  /// the count-query names and per-query pinned-ness — marginals and
  /// rectangles get structured names from their ConstraintSet builders,
  /// so constrained and unconstrained variants of one query shape,
  /// distinct marginals of equal size, and pinned vs unpinned variants
  /// of one constraint set all occupy distinct entries). Policies whose
  /// constraints differ only in opaque predicates behind *identical
  /// names* still hash alike — pass a distinguishing `tag` in that
  /// case.
  static std::string PolicyFingerprint(const Policy& policy,
                                       const std::string& tag = "");

 private:
  using Entry = std::pair<std::string, double>;  // (key, sensitivity)

  /// Inserts (or refreshes) a key at the LRU front. Must hold mu_.
  void PutLocked(const std::string& key, double sensitivity);

  mutable std::mutex mu_;
  size_t capacity_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  /// Keys whose compute is running outside the lock; duplicate
  /// requesters wait on in_flight_cv_ instead of recomputing.
  std::set<std::string> in_flight_;
  std::condition_variable in_flight_cv_;
  Stats stats_;
  /// obs mirrors of stats_ plus the compute-time histogram; resolved in
  /// the constructor, never null.
  obs::Counter* hits_total_;
  obs::Counter* misses_total_;
  obs::Counter* evictions_total_;
  obs::Histogram* compute_us_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_SENSITIVITY_CACHE_H_
