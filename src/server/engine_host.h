// Multi-tenant serving host: many (policy, dataset) pairs, one process.
//
// PR 1's ReleaseEngine serves exactly one policy over one dataset. A
// deployment fronts many: each tenant — a (policy_id, dataset_id) pair —
// gets its own long-lived engine with its own BudgetAccountant (budget
// isolation is per tenant), while every engine shares
//
//   * one persistent ThreadPool, so a process hosting fifty tenants runs
//     a bounded worker set instead of fifty * num_threads threads, and
//   * one process-wide SensitivityCache: S(f, P) depends on the policy
//     and query shape only, never on the data, so tenants serving
//     different datasets under the same policy reuse each other's
//     NP-hard policy-graph bounds.
//
// Engines are constructed lazily, on the pool, at a tenant's first batch:
// registration is cheap (AddTenant just parks the policy and dataset),
// and a tenant that never receives traffic never materializes its
// histogram. SubmitBatch returns a std::future immediately, so many
// clients' batches interleave on the same workers. Determinism: a
// query's noise is a pure function of (tenant seed, admission order) —
// never of pool width or which worker executes it — so replaying the
// same per-tenant batch sequence reproduces the same output for any
// pool size. Admission order itself is only defined up to batch
// arrival: two batches *for the same tenant* in flight at once race for
// the engine's admission lock, so keep a tenant's batches sequential
// (or in one batch) when bit-replayability across runs matters.

#ifndef BLOWFISH_SERVER_ENGINE_HOST_H_
#define BLOWFISH_SERVER_ENGINE_HOST_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/policy.h"
#include "engine/release_engine.h"
#include "engine/sensitivity_cache.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "util/thread_pool.h"
#include "util/status.h"

namespace blowfish {

struct EngineHostOptions {
  /// Workers in the shared pool. Zero is allowed (all batches run on
  /// their submitting thread — SubmitBatch futures then complete
  /// inline).
  size_t num_threads = 4;
  /// Capacity of the process-wide shared SensitivityCache.
  size_t cache_capacity = 1024;
  /// Tenants without an explicit seed get one derived from this and
  /// their (policy_id, dataset_id) key, so a host restarted with the
  /// same configuration replays the same noise streams.
  uint64_t root_seed = 20140612;
  /// Registry the host's telemetry reports into — its shared pool and
  /// cache, and every tenant engine (each labeled
  /// {tenant=policy_id/dataset_id} on its budget metrics). nullptr = the
  /// process-wide default; tests inject a fresh registry for exact,
  /// isolated totals.
  obs::MetricsRegistry* metrics = nullptr;
  /// Span tracer forwarded to every tenant engine. nullptr = the
  /// process-wide default writer (disabled until opened).
  obs::TraceWriter* tracer = nullptr;
  /// Privacy audit sink forwarded to every tenant engine (each tags
  /// its lines with its {tenant=...} scope, so one log serves all
  /// tenants distinguishably and replays per tenant). nullptr = the
  /// process-wide AuditLog::Global() (disabled until opened).
  obs::AuditLog* audit = nullptr;
};

/// Per-tenant knobs, forwarded into the tenant's ReleaseEngineOptions.
struct TenantOptions {
  double default_session_budget = 10.0;
  /// Unset: derived from the host seed and the tenant key.
  std::optional<uint64_t> root_seed;
  uint64_t max_edges = uint64_t{1} << 24;
  /// Pair budget for the all-pairs constrained move enumeration.
  uint64_t max_pairs = uint64_t{1} << 28;
  size_t max_policy_graph_vertices = 24;
};

class EngineHost {
 public:
  /// Fires on the pool thread that served a batch, immediately after
  /// the batch finished (receipts settled, refunds applied) and BEFORE
  /// the SubmitBatch future resolves. This is the non-blocking
  /// alternative to future.get(): an event-driven caller (the net
  /// layer's reactor) uses it to emit the batch's RECEIPT/DONE frames
  /// without parking a thread on the future. Runs after every
  /// on_complete callback of the batch has returned.
  using BatchDoneCallback =
      std::function<void(const StatusOr<std::vector<QueryResponse>>&)>;

  explicit EngineHost(EngineHostOptions options = {});

  EngineHost(const EngineHost&) = delete;
  EngineHost& operator=(const EngineHost&) = delete;

  /// Drains the pool (every submitted batch completes) and joins.
  ~EngineHost();

  /// Registers a tenant. The engine is NOT built here — construction
  /// (histogram materialization, domain validation) happens lazily on
  /// the pool at the first batch, and a Create error is reported by that
  /// batch's future (and every later one). Fails if the key is taken.
  Status AddTenant(const std::string& policy_id,
                   const std::string& dataset_id, Policy policy,
                   Dataset data, TenantOptions options = {});

  /// Enqueues a batch for a tenant and returns immediately; the future
  /// delivers the responses (or NotFound for an unknown tenant /
  /// InvalidArgument for a tenant whose engine failed to construct).
  /// Batches for one tenant are served in the order the pool dequeues
  /// them; different tenants' batches interleave freely. Do not block on
  /// the future from a task running on this host's own pool — the batch
  /// is queued behind you; use ServeBatch, which runs inline there.
  ///
  /// `on_complete`, when set, streams each query's response as it
  /// finishes, ahead of the future (engine/release_engine.h documents
  /// the callback contract). Payloads are bit-identical to the future's
  /// for any pool size; callbacks run on pool threads, serialized per
  /// batch. No callback fires for a batch that fails before reaching
  /// the engine (unknown tenant, construction error) — the future
  /// carries that error.
  ///
  /// `trace`, when valid, is the batch's wire-propagated trace context
  /// (threaded into the engine's spans and audit lines); the host also
  /// emits a "queue_wait" span covering enqueue -> pool pickup.
  ///
  /// `on_done`, when set, receives the same value the future will
  /// carry, on the serving pool thread, before the future resolves —
  /// including the pre-engine failures (unknown tenant, construction
  /// error) that never fire on_complete. With a zero-thread pool the
  /// whole batch (and therefore on_done) runs inline on the submitting
  /// thread before SubmitBatch returns.
  std::future<StatusOr<std::vector<QueryResponse>>> SubmitBatch(
      const std::string& policy_id, const std::string& dataset_id,
      std::vector<QueryRequest> requests,
      QueryCompletionCallback on_complete = nullptr,
      const obs::TraceContext& trace = obs::TraceContext(),
      BatchDoneCallback on_done = nullptr);

  /// Synchronous convenience: SubmitBatch + get(); called from one of
  /// this host's own pool workers, it serves the batch inline instead
  /// (deadlock-free).
  StatusOr<std::vector<QueryResponse>> ServeBatch(
      const std::string& policy_id, const std::string& dataset_id,
      std::vector<QueryRequest> requests,
      QueryCompletionCallback on_complete = nullptr,
      const obs::TraceContext& trace = obs::TraceContext());

  /// Parses `text` with the batch-file grammar (engine/batch_request.h)
  /// into submittable requests. A static pass-through so the wire layer
  /// (src/net/) can build batches while reaching the engine only
  /// through this header — CI greps that src/net/ includes no
  /// engine/core/mech header directly.
  static StatusOr<std::vector<QueryRequest>> ParseBatchText(
      const std::string& text);

  /// The tenant's engine, constructing it on the calling thread if this
  /// is its first use (e.g. to open budget sessions before traffic).
  StatusOr<ReleaseEngine*> engine(const std::string& policy_id,
                                  const std::string& dataset_id);

  bool HasTenant(const std::string& policy_id,
                 const std::string& dataset_id) const;

  /// Registered tenant keys, in order.
  std::vector<std::pair<std::string, std::string>> Tenants() const;

  SensitivityCache& cache() { return *cache_; }
  ThreadPool& pool() { return *pool_; }

  /// One budget line of the HEALTH surface: a constructed tenant
  /// engine's session, with the engine's metrics scope as the tenant
  /// label.
  struct TenantBudget {
    std::string tenant;  // policy_id/dataset_id, label-sanitized
    std::string session;
    double budget = 0.0;
    double spent = 0.0;
    double remaining = 0.0;
  };

  /// Snapshot of every session of every ALREADY-CONSTRUCTED tenant
  /// engine, for liveness reporting. Deliberately does not force lazy
  /// engine construction — a health probe must stay cheap and
  /// side-effect-free.
  std::vector<TenantBudget> BudgetSnapshot() const;

  /// Stops the pool after draining queued batches. Idempotent; batches
  /// submitted afterwards run inline on the submitting thread.
  void Shutdown();

 private:
  using TenantKey = std::pair<std::string, std::string>;

  struct Tenant {
    TenantOptions options;
    /// Parked until first use, then consumed by ReleaseEngine::Create.
    std::optional<Policy> pending_policy;
    std::optional<Dataset> pending_data;
    std::unique_ptr<ReleaseEngine> engine;
    /// A failed Create is permanent for the tenant; replayed to every
    /// later batch.
    Status create_error;
    std::mutex mu;
  };

  StatusOr<ReleaseEngine*> GetOrCreateEngine(const TenantKey& key);

  EngineHostOptions options_;
  std::shared_ptr<ThreadPool> pool_;
  std::shared_ptr<SensitivityCache> cache_;
  mutable std::mutex mu_;  // guards tenants_ (the map, not the entries)
  std::map<TenantKey, std::unique_ptr<Tenant>> tenants_;
};

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_ENGINE_HOST_H_
