#include "server/engine_host.h"

#include "engine/batch_request.h"
#include "util/random.h"

namespace blowfish {

namespace {

/// Stable (FNV-1a) string hash — std::hash is not specified to be stable,
/// and derived tenant seeds should survive a rebuild.
uint64_t Fnv1a(const std::string& text, uint64_t h) {
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t DeriveTenantSeed(uint64_t host_seed, const std::string& policy_id,
                          const std::string& dataset_id) {
  uint64_t h = Fnv1a(policy_id, 0xcbf29ce484222325ULL);
  h = Fnv1a("\x1f", h);
  h = Fnv1a(dataset_id, h);
  // Same derivation shape as Random::Fork(stream_id): seed ^ mixed id,
  // mixed again.
  return SplitMix64(host_seed ^ SplitMix64(h));
}

/// The {tenant=...} label value for a tenant's metrics. Label blocks use
/// '{', '}', ',' and '=' structurally, so those (and quotes) are mapped
/// to '_' — ids come from configs and are normally already clean.
std::string TenantMetricsScope(const std::string& policy_id,
                               const std::string& dataset_id) {
  std::string scope = policy_id + "/" + dataset_id;
  for (char& c : scope) {
    if (c == '{' || c == '}' || c == ',' || c == '=' || c == '"') c = '_';
  }
  return scope;
}

}  // namespace

EngineHost::EngineHost(EngineHostOptions options)
    : options_(options),
      pool_(std::make_shared<ThreadPool>(options.num_threads,
                                         options.metrics)),
      cache_(std::make_shared<SensitivityCache>(options.cache_capacity,
                                                options.metrics)) {}

EngineHost::~EngineHost() { Shutdown(); }

void EngineHost::Shutdown() { pool_->Shutdown(); }

Status EngineHost::AddTenant(const std::string& policy_id,
                             const std::string& dataset_id, Policy policy,
                             Dataset data, TenantOptions options) {
  auto tenant = std::make_unique<Tenant>();
  tenant->options = options;
  tenant->pending_policy.emplace(std::move(policy));
  tenant->pending_data.emplace(std::move(data));
  std::lock_guard<std::mutex> lock(mu_);
  const TenantKey key{policy_id, dataset_id};
  if (tenants_.count(key) > 0) {
    return Status::InvalidArgument("tenant ('" + policy_id + "', '" +
                                   dataset_id + "') already registered");
  }
  tenants_.emplace(key, std::move(tenant));
  return Status::OK();
}

StatusOr<ReleaseEngine*> EngineHost::GetOrCreateEngine(
    const TenantKey& key) {
  Tenant* tenant = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tenants_.find(key);
    if (it == tenants_.end()) {
      return Status::NotFound("unknown tenant ('" + key.first + "', '" +
                              key.second + "')");
    }
    tenant = it->second.get();
  }
  // Per-tenant construction lock: a slow first construction (histogram
  // materialization) blocks only this tenant's batches, not the host.
  std::lock_guard<std::mutex> lock(tenant->mu);
  if (tenant->engine != nullptr) return tenant->engine.get();
  if (!tenant->create_error.ok()) return tenant->create_error;

  ReleaseEngineOptions engine_options;
  engine_options.pool = pool_;
  engine_options.shared_cache = cache_;
  engine_options.root_seed = tenant->options.root_seed.value_or(
      DeriveTenantSeed(options_.root_seed, key.first, key.second));
  engine_options.default_session_budget =
      tenant->options.default_session_budget;
  engine_options.max_edges = tenant->options.max_edges;
  engine_options.max_pairs = tenant->options.max_pairs;
  engine_options.max_policy_graph_vertices =
      tenant->options.max_policy_graph_vertices;
  engine_options.metrics = options_.metrics;
  engine_options.metrics_scope = TenantMetricsScope(key.first, key.second);
  engine_options.tracer = options_.tracer;
  engine_options.audit = options_.audit;

  auto engine = ReleaseEngine::Create(std::move(*tenant->pending_policy),
                                      std::move(*tenant->pending_data),
                                      engine_options);
  tenant->pending_policy.reset();
  tenant->pending_data.reset();
  if (!engine.ok()) {
    tenant->create_error = engine.status();
    return tenant->create_error;
  }
  tenant->engine = std::move(*engine);
  return tenant->engine.get();
}

std::future<StatusOr<std::vector<QueryResponse>>> EngineHost::SubmitBatch(
    const std::string& policy_id, const std::string& dataset_id,
    std::vector<QueryRequest> requests,
    QueryCompletionCallback on_complete, const obs::TraceContext& trace,
    BatchDoneCallback on_done) {
  obs::TraceWriter* tracer = options_.tracer != nullptr
                                 ? options_.tracer
                                 : obs::TraceWriter::Global();
  const uint64_t enqueue_us =
      tracer->enabled() ? obs::MonotonicMicros() : 0;
  return pool_->Submit(
      [this, key = TenantKey{policy_id, dataset_id},
       requests = std::move(requests),
       on_complete = std::move(on_complete),
       on_done = std::move(on_done), trace, tracer,
       enqueue_us]() -> StatusOr<std::vector<QueryResponse>> {
        // Queue-wait span: time between SubmitBatch and a pool worker
        // picking the batch up — emitted before serving so a reader
        // sees the causal order queue_wait -> sensitivity -> execute.
        if (enqueue_us != 0 && tracer->enabled()) {
          obs::TraceEvent span("queue_wait");
          span.Str("tenant", TenantMetricsScope(key.first, key.second))
              .Uint("ts_us", enqueue_us)
              .Uint("dur_us", obs::MonotonicMicros() - enqueue_us);
          trace.Stamp(&span);
          tracer->Write(std::move(span));
        }
        auto engine = GetOrCreateEngine(key);
        StatusOr<std::vector<QueryResponse>> result =
            engine.ok()
                ? (*engine)->ServeBatch(requests, on_complete, trace)
                : StatusOr<std::vector<QueryResponse>>(engine.status());
        // The epilogue runs here — settlement done, callbacks done —
        // not at future-resolution time, so an event-driven caller
        // needs no thread parked on the future at all.
        if (on_done) on_done(result);
        return result;
      });
}

StatusOr<std::vector<QueryResponse>> EngineHost::ServeBatch(
    const std::string& policy_id, const std::string& dataset_id,
    std::vector<QueryRequest> requests,
    QueryCompletionCallback on_complete, const obs::TraceContext& trace) {
  if (pool_->IsWorkerThread()) {
    // Called from one of our own pool workers: blocking on a future of a
    // task queued behind this one would deadlock a small pool. Run the
    // batch inline — the engine's cooperative drain still lets the other
    // workers help with its queries.
    auto engine = GetOrCreateEngine(TenantKey{policy_id, dataset_id});
    if (!engine.ok()) return engine.status();
    return (*engine)->ServeBatch(requests, on_complete, trace);
  }
  return SubmitBatch(policy_id, dataset_id, std::move(requests),
                     std::move(on_complete), trace)
      .get();
}

StatusOr<std::vector<QueryRequest>> EngineHost::ParseBatchText(
    const std::string& text) {
  return ParseBatchRequests(text);
}

StatusOr<ReleaseEngine*> EngineHost::engine(const std::string& policy_id,
                                            const std::string& dataset_id) {
  return GetOrCreateEngine(TenantKey{policy_id, dataset_id});
}

bool EngineHost::HasTenant(const std::string& policy_id,
                           const std::string& dataset_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tenants_.count(TenantKey{policy_id, dataset_id}) > 0;
}

std::vector<EngineHost::TenantBudget> EngineHost::BudgetSnapshot() const {
  // Collect the constructed engines first (tenant map lock, then each
  // tenant's construction lock, briefly), then read their accountants
  // with no host lock held — ListSessions takes the accountant's own
  // mutex. Engines are never destroyed while the host lives, so the
  // collected pointers stay valid.
  std::vector<std::pair<std::string, ReleaseEngine*>> engines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, tenant] : tenants_) {
      std::lock_guard<std::mutex> tenant_lock(tenant->mu);
      if (tenant->engine != nullptr) {
        engines.emplace_back(TenantMetricsScope(key.first, key.second),
                             tenant->engine.get());
      }
    }
  }
  std::vector<TenantBudget> out;
  for (const auto& [scope, engine] : engines) {
    for (const BudgetAccountant::SessionInfo& session :
         engine->accountant().ListSessions()) {
      TenantBudget line;
      line.tenant = scope;
      line.session = session.name;
      line.budget = session.budget;
      line.spent = session.spent;
      line.remaining = session.remaining;
      out.push_back(std::move(line));
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> EngineHost::Tenants()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<TenantKey> out;
  out.reserve(tenants_.size());
  for (const auto& [key, tenant] : tenants_) out.push_back(key);
  return out;
}

}  // namespace blowfish
