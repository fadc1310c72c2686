#include "engine/release_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <map>
#include <set>
#include <utility>

#include "core/constraints.h"
#include "core/secret_graph.h"
#include "core/sensitivity.h"
#include "util/thread_pool.h"

namespace blowfish {

namespace {

/// S_T of a 1-D domain's h(D) (Def 7.1); null on a multi-attribute
/// domain, where no op reads prefix sums, and without h(D).
std::shared_ptr<const std::vector<double>> PrefixSumsOf(
    const Policy& policy, const Histogram& hist) {
  if (policy.domain().num_attributes() != 1 || hist.size() == 0) {
    return nullptr;
  }
  return std::make_shared<const std::vector<double>>(hist.CumulativeSums());
}

}  // namespace

QueryExecContext::QueryExecContext(
    const Policy& policy, const Dataset& data, const Histogram& hist,
    double epsilon, double sensitivity,
    std::shared_ptr<const std::vector<double>> cumulative)
    : policy(policy),
      data(data),
      hist(hist),
      cumulative(cumulative != nullptr ? std::move(cumulative)
                                       : PrefixSumsOf(policy, hist)),
      epsilon(epsilon),
      sensitivity(sensitivity) {}

std::string QueryKindName(const QueryRequest& request) {
  return request.op == nullptr ? std::string("unknown")
                               : request.op->KindName();
}

StatusOr<std::unique_ptr<ReleaseEngine>> ReleaseEngine::Create(
    Policy policy, Dataset data, ReleaseEngineOptions options) {
  if (options.pool == nullptr && options.num_threads == 0) {
    return Status::InvalidArgument(
        "num_threads must be >= 1 when no pool is injected");
  }
  if (!(options.default_session_budget >= 0.0) ||
      !std::isfinite(options.default_session_budget)) {
    return Status::InvalidArgument(
        "default_session_budget must be finite and >= 0 (a NaN budget "
        "would silently disable enforcement)");
  }
  if (data.domain().num_attributes() != policy.domain().num_attributes()) {
    return Status::InvalidArgument(
        "dataset and policy domains do not match");
  }
  for (size_t i = 0; i < policy.domain().num_attributes(); ++i) {
    const Attribute& pa = policy.domain().attribute(i);
    const Attribute& da = data.domain().attribute(i);
    if (pa.cardinality != da.cardinality || pa.scale != da.scale ||
        pa.name != da.name) {
      return Status::InvalidArgument(
          "dataset and policy domains differ on attribute " +
          std::to_string(i) + " ('" + da.name + "' vs '" + pa.name + "')");
    }
  }
  // The refusal the lazy h(D) build would hit, surfaced at
  // construction rather than as a refund on the first batch.
  if (data.domain().size() > (uint64_t{1} << 26)) {
    return Status::ResourceExhausted(
        "domain too large to materialize a complete histogram");
  }
  return std::unique_ptr<ReleaseEngine>(
      new ReleaseEngine(std::move(policy), std::move(data), options));
}

ReleaseEngine::ReleaseEngine(Policy policy, Dataset data,
                             ReleaseEngineOptions options)
    : policy_(std::move(policy)), data_(std::move(data)),
      options_(options),
      policy_fp_(SensitivityCache::PolicyFingerprint(policy_)),
      accountant_(options.default_session_budget,
                  options.metrics != nullptr
                      ? options.metrics
                      : obs::MetricsRegistry::Global(),
                  options.metrics_scope,
                  options.audit != nullptr ? options.audit
                                           : obs::AuditLog::Global()),
      cache_(options.shared_cache
                 ? options.shared_cache
                 : std::make_shared<SensitivityCache>(
                       options.cache_capacity, options.metrics)),
      pool_(options.pool ? options.pool
                         : std::make_shared<ThreadPool>(
                               options.num_threads - 1, options.metrics)),
      root_seed_(options.root_seed),
      metrics_(options.metrics != nullptr ? options.metrics
                                          : obs::MetricsRegistry::Global()),
      tracer_(options.tracer != nullptr ? options.tracer
                                        : obs::TraceWriter::Global()),
      audit_(options.audit != nullptr ? options.audit
                                      : obs::AuditLog::Global()) {
  batches_total_ = metrics_->GetCounter("engine_batches_total");
  batch_latency_us_ = metrics_->GetHistogram("engine_batch_latency_us");
  scans_total_ = metrics_->GetCounter("engine_scans_total");
  scan_latency_us_ = metrics_->GetHistogram("engine_scan_latency_us");
}

ReleaseEngine::~ReleaseEngine() = default;

/// Per-kind dispatch telemetry. One block per query kind, created on the
/// kind's first admission and stable afterwards.
struct ReleaseEngine::KindMetrics {
  obs::Histogram* latency_us = nullptr;
  obs::Counter* queries_total = nullptr;
  obs::DoubleCounter* eps_charged = nullptr;
};

const ReleaseEngine::KindMetrics& ReleaseEngine::KindMetricsFor(
    const std::string& kind) {
  auto& slot = kind_metrics_[kind];
  if (slot == nullptr) {
    slot.reset(new KindMetrics());
    slot->latency_us = metrics_->GetHistogram(
        "engine_query_latency_us{kind=" + kind + "}");
    slot->queries_total =
        metrics_->GetCounter("engine_queries_total{kind=" + kind + "}");
    slot->eps_charged = metrics_->GetDoubleCounter(
        "engine_eps_charged_total{kind=" + kind + "}");
  }
  return *slot;
}

void ReleaseEngine::CountRefusal(StatusCode code) {
  auto& counter = refusal_counters_[code];
  if (counter == nullptr) {
    counter = metrics_->GetCounter(
        std::string("engine_queries_refused_total{code=") +
        StatusCodeToString(code) + "}");
  }
  counter->Increment();
}

StatusOr<double> ReleaseEngine::ResolveSensitivity(
    const QueryRequest& request, bool* cache_hit) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string shape,
                            request.op->SensitivityShape());
  const SensitivityEnv env{options_.max_edges, options_.max_pairs,
                           options_.max_policy_graph_vertices};
  // The hit flag is reported by GetOrCompute under the cache's own lock;
  // a separate Contains() probe would race other engines sharing the
  // cache.
  return cache_->GetOrCompute(
      policy_fp_, shape,
      [this, &request, &env]() -> StatusOr<double> {
        return request.op->ComputeSensitivity(policy_, env);
      },
      cache_hit);
}

void ReleaseEngine::Execute(
    const QueryRequest& request, const Histogram& hist,
    std::shared_ptr<const std::vector<double>> cumulative, Random rng,
    QueryResponse* response) const {
  const QueryExecContext ctx{policy_,
                             data_,
                             hist,
                             request.epsilon,
                             response->sensitivity,
                             std::move(cumulative)};
  StatusOr<std::vector<double>> released =
      request.op->Execute(ctx, std::move(rng));
  if (!released.ok()) {
    response->status = released.status();
    return;
  }
  response->values = std::move(*released);
}

struct ReleaseEngine::Work {
  size_t index = 0;
  uint64_t stream_id = 0;
  /// h(D) or empty_hist_: stable for the engine's lifetime and
  /// read-only during the drain.
  const Histogram* hist = nullptr;
  /// S_T of h(D) on a 1-D domain, else null.
  std::shared_ptr<const std::vector<double>> cumulative;
  /// Stable handle pointers resolved at admission (under serve_mu_), so
  /// the drain threads never touch the kind-metrics map.
  obs::Histogram* latency_us = nullptr;
  obs::Counter* queries_total = nullptr;
};

std::vector<QueryResponse> ReleaseEngine::ServeBatch(
    const std::vector<QueryRequest>& requests,
    const QueryCompletionCallback& on_complete,
    const obs::TraceContext& trace) {
  std::lock_guard<std::mutex> serve_lock(serve_mu_);
  const uint64_t batch_start_us = obs::MonotonicMicros();
  std::vector<QueryResponse> responses(requests.size());

  // Audit events are gathered as admission/refund/settle decisions are
  // made — in exact ledger-operation order — and written in the
  // epilogue, off the accountant's mutex. One enabled check per batch.
  const bool audit_on = audit_->enabled();
  std::vector<obs::TraceEvent> audit_events;
  auto new_audit_event = [&](const char* kind, const std::string& session) {
    obs::TraceEvent event("event", kind);
    event.Uint("ts_us", obs::MonotonicMicros());
    if (!options_.metrics_scope.empty()) {
      event.Str("tenant", options_.metrics_scope);
    }
    event.Str("session", session);
    trace.Stamp(&event);
    return event;
  };
  auto audit_charge = [&](const std::string& kind, const BudgetReceipt& r,
                          size_t group_members) {
    obs::TraceEvent event = new_audit_event("charge", r.session);
    event.Str("kind", kind)
        .Str("label", r.label)
        .Double("eps", r.epsilon)
        .Double("charged", r.charged)
        .Uint("charge_id", r.charge_id)
        .Double("budget", r.budget)
        .Double("remaining", r.remaining)
        .Bool("parallel", r.parallel);
    if (r.parallel) event.Uint("members", group_members);
    audit_events.push_back(std::move(event));
  };

  // Whether the policy carries constraints that actually restrict I_Q;
  // unpinned-only sets are semantically unconstrained.
  const bool pinned_constraints =
      policy_.has_constraints() && policy_.constraints().AnyPinned();

  // --- Admission pass 1 (sequential): validate, resolve sensitivities. ---
  for (size_t i = 0; i < requests.size(); ++i) {
    responses[i].label = requests[i].label;
    if (requests[i].op == nullptr) {
      responses[i].status = Status::InvalidArgument(
          "request has no query op (construct requests via "
          "ParseBatchRequests or MakeQueryRequest)");
      continue;
    }
    Status valid = requests[i].op->Validate(policy_);
    if (!valid.ok()) {
      responses[i].status = valid;
      continue;
    }
    // Data-dependent preconditions refuse here too — before any charge,
    // so a doomed query (e.g. mean over an empty dataset) never mints a
    // charge/refund pair in the audit log.
    Status valid_data = requests[i].op->ValidateData(policy_, data_);
    if (!valid_data.ok()) {
      responses[i].status = valid_data;
      continue;
    }
    if (pinned_constraints && !requests[i].parallel_group.empty()) {
      // A constrained group member's own chain-bound sensitivity is
      // never used: if the group is admitted, every member is noised at
      // the shared union-cells sensitivity computed in pass 2 (which
      // also re-checks the epsilon rule at that scale), and if the
      // group is refused, the member never executes. Skipping here
      // avoids one NP-hard per-member search per distinct cell shape.
      continue;
    }
    bool cache_hit = false;
    auto sensitivity = ResolveSensitivity(requests[i], &cache_hit);
    if (!sensitivity.ok()) {
      responses[i].status = sensitivity.status();
      continue;
    }
    responses[i].sensitivity = *sensitivity;
    responses[i].cache_hit = cache_hit;
    if (*sensitivity > 0.0 && !(requests[i].epsilon > 0.0)) {
      responses[i].status = Status::InvalidArgument(
          "epsilon must be positive for a query with non-zero "
          "sensitivity");
    }
  }

  // End of the validate/sensitivity-resolution phase, for the
  // "sensitivity" trace span.
  const uint64_t sens_end_us = obs::MonotonicMicros();

  // --- Admission pass 2 (sequential): charge budgets. --------------------
  // Strictly in request order, so refusals under contention hit the later
  // queries: sequential requests charge eps at their own position;
  // a parallel group charges max(eps) once (Thm 4.2/4.3), at its first
  // member's position, once its cells are proven disjoint and, on a
  // constrained policy, its union scale computes (see header comment).
  struct Group {
    std::vector<size_t> members;
  };
  std::map<std::pair<std::string, std::string>, Group> groups;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok()) continue;
    const QueryRequest& req = requests[i];
    if (!req.parallel_group.empty()) {
      groups[{req.session, req.parallel_group}].members.push_back(i);
    }
  }
  std::set<std::pair<std::string, std::string>> groups_done;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok()) continue;
    const QueryRequest& req = requests[i];
    if (req.parallel_group.empty()) {
      const double charge =
          req.op->Charge(responses[i].sensitivity, req.epsilon);
      auto receipt = accountant_.ChargeSequential(
          req.session, charge,
          req.label.empty() ? req.op->KindName() : req.label);
      if (!receipt.ok()) {
        if (audit_on &&
            receipt.status().code() == StatusCode::kResourceExhausted) {
          obs::TraceEvent event = new_audit_event("refuse", req.session);
          event.Str("kind", QueryKindName(req))
              .Str("label", req.label)
              .Double("eps", charge)
              .Bool("parallel", false);
          audit_events.push_back(std::move(event));
        }
        responses[i].status = receipt.status();
        continue;
      }
      responses[i].receipt = std::move(*receipt);
      if (audit_on) {
        audit_charge(QueryKindName(req), responses[i].receipt, 0);
      }
      continue;
    }
    const std::pair<std::string, std::string> key{req.session,
                                                  req.parallel_group};
    if (!groups_done.insert(key).second) continue;  // already handled
    const Group& group = groups.at(key);
    Status valid = Status::OK();
    // Structural disjointness: every member's op must expose the G^P
    // cells it touches, and the cell sets must be pairwise disjoint
    // (see header comment).
    std::set<uint64_t> seen_cells;
    std::vector<std::vector<uint64_t>> member_cells;
    member_cells.reserve(group.members.size());
    for (size_t m : group.members) {
      auto cells = requests[m].op->ParallelCells();
      if (!cells.ok()) {
        valid = Status::FailedPrecondition("parallel group '" + key.second +
                                           "': " + cells.status().message());
        break;
      }
      for (uint64_t c : *cells) {
        if (!seen_cells.insert(c).second) {
          valid = Status::FailedPrecondition(
              "parallel group '" + key.second + "' cell sets overlap (cell " +
              std::to_string(c) + ")");
          break;
        }
      }
      if (!valid.ok()) break;
      member_cells.push_back(std::move(*cells));
    }
    if (valid.ok() &&
        dynamic_cast<const PartitionGraph*>(&policy_.graph()) == nullptr) {
      valid = Status::FailedPrecondition(
          "parallel composition requires a partition (G^P) secret graph");
    }
    if (valid.ok() && pinned_constraints) {
      // A constrained neighbour step's COMPENSATING moves can land in
      // any cell, so several members' histograms may change in one
      // step; every member is therefore noised at the shared
      // union-cells sensitivity, which alone makes the max(eps) charge
      // sound (proof in release_engine.h). It is cached under the sorted
      // union shape.
      // Unconstrained groups keep their per-member scales (a neighbour
      // is one in-cell move; Thm 4.2).
      const std::vector<uint64_t> union_cells =
          SortedUnionCells(member_cells);
      std::string shape = "h_cells[union";
      for (uint64_t c : union_cells) {
        shape += "," + std::to_string(c);
      }
      shape += "]";
      auto union_sensitivity = cache_->GetOrCompute(
          policy_fp_, shape, [this, &union_cells]() -> StatusOr<double> {
            return ConstrainedCellHistogramSensitivity(
                policy_, union_cells, options_.max_edges,
                options_.max_pairs, options_.max_policy_graph_vertices);
          });
      if (!union_sensitivity.ok()) {
        valid = union_sensitivity.status();
      } else {
        for (size_t m : group.members) {
          responses[m].sensitivity = *union_sensitivity;
          // Re-check the free-release epsilon rule from admission pass 1
          // under the new scale: a member whose OWN sensitivity was 0
          // could legally carry eps = 0 (an exact release), but at the
          // union scale it draws noise and a zero epsilon would only be
          // caught inside Execute, after the group charge.
          if (*union_sensitivity > 0.0 &&
              !(requests[m].epsilon > 0.0)) {
            valid = Status::InvalidArgument(
                "parallel group '" + key.second +
                "': epsilon must be positive for every member — the "
                "group is noised at the shared union-cells sensitivity "
                "on a constrained policy, so no member is a free exact "
                "release");
          }
        }
      }
    }
    if (!valid.ok()) {
      for (size_t m : group.members) responses[m].status = valid;
      continue;
    }
    std::vector<double> epsilons;
    size_t argmax = group.members.front();
    for (size_t m : group.members) {
      const double charge = requests[m].op->Charge(
          responses[m].sensitivity, requests[m].epsilon);
      epsilons.push_back(charge);
      const double best = requests[argmax].op->Charge(
          responses[argmax].sensitivity, requests[argmax].epsilon);
      if (charge > best) argmax = m;
    }
    auto receipt =
        accountant_.ChargeParallel(key.first, epsilons, key.second);
    if (!receipt.ok()) {
      if (audit_on &&
          receipt.status().code() == StatusCode::kResourceExhausted) {
        obs::TraceEvent event = new_audit_event("refuse", key.first);
        event.Str("kind", "parallel_group")
            .Str("label", key.second)
            .Double("eps",
                    *std::max_element(epsilons.begin(), epsilons.end()))
            .Bool("parallel", true);
        audit_events.push_back(std::move(event));
      }
      for (size_t m : group.members) responses[m].status = receipt.status();
      continue;
    }
    // The parallel-group admission record: one ledger charge of
    // max(eps) covers the whole group.
    if (audit_on) {
      audit_charge("parallel_group", *receipt, group.members.size());
    }
    for (size_t m : group.members) {
      BudgetReceipt r = *receipt;
      r.label = requests[m].label.empty() ? requests[m].op->KindName()
                                          : requests[m].label;
      r.epsilon = requests[m].op->Charge(responses[m].sensitivity,
                                         requests[m].epsilon);
      // The one group charge is attributed to the most expensive member.
      if (m != argmax) r.charged = 0.0;
      responses[m].receipt = std::move(r);
    }
  }

  // --- Spend attribution (sequential, after charging): per-kind epsilon
  // totals. Summing receipt.charged — the group charge rides on its
  // argmax member — keeps the per-kind totals adding up to the
  // accountant's session totals.
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok()) continue;
    if (responses[i].receipt.charged > 0.0) {
      KindMetricsFor(QueryKindName(requests[i]))
          .eps_charged->Add(responses[i].receipt.charged);
    }
  }

  // --- h(D) (sequential): the first admitted query that reads the
  // histogram builds the engine's memoized h(D), and on a 1-D domain its
  // prefix sums S_T with it; every later query and
  // batch shares it, so steady-state batches scan nothing at all. Runs
  // after charging so only charged queries can trigger a scan, and
  // before stream assignment so a (theoretically) failed scan refuses
  // the query exactly like a mechanism error — with a refund below.
  std::vector<const Histogram*> hists(requests.size(), &empty_hist_);
  const uint64_t scan_start_us = obs::MonotonicMicros();
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok() || !requests[i].op->NeedsHistogram()) {
      continue;
    }
    if (hist_ == nullptr) {
      const uint64_t build_start_us = obs::MonotonicMicros();
      StatusOr<Histogram> counted = data_.CompleteHistogram();
      scans_total_->Increment();
      scan_latency_us_->Observe(obs::MonotonicMicros() - build_start_us);
      if (!counted.ok()) {
        // Unreachable while Create caps the domain, but a scan failure
        // is a mechanism-style failure: refuse this query and let the
        // settlement pass refund its charge.
        responses[i].status = counted.status();
        continue;
      }
      hist_ = std::make_shared<const Histogram>(std::move(*counted));
      cumulative_ = PrefixSumsOf(policy_, *hist_);
    }
    hists[i] = hist_.get();
  }
  const uint64_t scan_end_us = obs::MonotonicMicros();

  // --- Admission pass 3 (sequential): assign RNG streams. ----------------
  // Stream ids are handed out in request order, so the noise a query draws
  // is a pure function of (root seed, admission history) — never of
  // thread scheduling.
  std::vector<Work> work;
  work.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok()) continue;
    const KindMetrics& km = KindMetricsFor(QueryKindName(requests[i]));
    work.push_back(Work{i, next_stream_++, hists[i],
                        hists[i] == &empty_hist_ ? nullptr : cumulative_,
                        km.latency_us, km.queries_total});
  }

  // --- Streaming: queries refused at admission complete right now, in
  // request order, before any execution; admitted queries stream from
  // the drain below as each finishes.
  if (on_complete) {
    for (size_t i = 0; i < requests.size(); ++i) {
      if (!responses[i].status.ok()) on_complete(i, responses[i]);
    }
  }

  // --- Execution: drain cooperatively with the persistent pool. ----------
  // The admitted items go into shared state; pool workers are invited to
  // help, but the submitting thread drains the queue too, so the batch
  // completes even if every pool worker is busy with other tenants (or
  // the pool has zero workers) — which also makes nested submission (a
  // batch task running *on* the pool fanning out to the same pool)
  // deadlock-free. A helper arriving after the queue is drained claims an
  // out-of-range index and returns at once; the shared_ptr keeps the
  // claim counter alive for such stragglers even after ServeBatch
  // returns, and by then no unclaimed item exists, so the pointers into
  // this frame's requests/responses are never dereferenced again.
  struct BatchState {
    std::vector<Work> work;
    const std::vector<QueryRequest>* requests = nullptr;
    std::vector<QueryResponse>* responses = nullptr;
    /// Per-request execution start time and duration, for the trace
    /// spans (each slot is written by exactly one drain thread; the
    /// all_done handshake publishes them back to the batch thread).
    std::vector<uint64_t>* start_us = nullptr;
    std::vector<uint64_t>* durations_us = nullptr;
    const ReleaseEngine* engine = nullptr;
    const QueryCompletionCallback* on_complete = nullptr;
    std::atomic<size_t> next{0};
    /// Serializes streaming callbacks: completions may land on several
    /// workers at once, but user code sees one call at a time.
    std::mutex callback_mu;
    std::mutex done_mu;
    std::condition_variable all_done;
    size_t done = 0;
  };
  std::vector<uint64_t> start_us(requests.size(), 0);
  std::vector<uint64_t> durations_us(requests.size(), 0);
  auto state = std::make_shared<BatchState>();
  state->work = std::move(work);
  state->requests = &requests;
  state->responses = &responses;
  state->start_us = &start_us;
  state->durations_us = &durations_us;
  state->engine = this;
  state->on_complete = on_complete ? &on_complete : nullptr;
  auto drain = [](const std::shared_ptr<BatchState>& s) {
    size_t completed = 0;
    while (true) {
      const size_t w = s->next.fetch_add(1);
      if (w >= s->work.size()) break;
      const Work& item = s->work[w];
      QueryResponse& response = (*s->responses)[item.index];
      const uint64_t exec_start_us = obs::MonotonicMicros();
      s->engine->Execute((*s->requests)[item.index], *item.hist,
                         item.cumulative,
                         Random(s->engine->root_seed_).Fork(item.stream_id),
                         &response);
      const uint64_t exec_us = obs::MonotonicMicros() - exec_start_us;
      (*s->start_us)[item.index] = exec_start_us;
      (*s->durations_us)[item.index] = exec_us;
      // Telemetry after the fact, on pre-resolved handles: sharded
      // atomics only — nothing here can reorder completions or touch
      // the query's RNG stream.
      item.latency_us->Observe(exec_us);
      item.queries_total->Increment();
      // A failed query releases nothing: drop any partial payload
      // computed before the failure (e.g. the first of several
      // quantiles, already noisy), both as hygiene and because the
      // end-of-batch refund is only sound if nothing was published.
      if (!response.status.ok()) response.values.clear();
      if (s->on_complete != nullptr) {
        std::lock_guard<std::mutex> lock(s->callback_mu);
        (*s->on_complete)(item.index, response);
      }
      ++completed;
    }
    if (completed > 0) {
      std::lock_guard<std::mutex> lock(s->done_mu);
      s->done += completed;
      if (s->done == s->work.size()) s->all_done.notify_all();
    }
  };
  const uint64_t exec_phase_start_us = obs::MonotonicMicros();
  const size_t helpers = std::min(
      pool_->size(), state->work.empty() ? 0 : state->work.size() - 1);
  for (size_t t = 0; t < helpers; ++t) {
    pool_->Post([state, drain]() { drain(state); });
  }
  drain(state);
  {
    std::unique_lock<std::mutex> lock(state->done_mu);
    state->all_done.wait(
        lock, [&]() { return state->done == state->work.size(); });
  }
  const uint64_t exec_phase_end_us = obs::MonotonicMicros();

  // --- Refunds: a query that failed *after* its budget charge (mechanism
  // error mid-batch) returns the charge to its session. Sequential
  // charges refund individually; a parallel group's single charge covered
  // every member, so it is returned only when the whole group failed —
  // if any member released, the group charge still pays for it.
  auto audit_refund = [&](const BudgetReceipt& r) {
    obs::TraceEvent event = new_audit_event("refund", r.session);
    event.Str("label", r.label)
        .Uint("charge_id", r.charge_id)
        .Double("charged", r.charged);
    audit_events.push_back(std::move(event));
  };
  const uint64_t settle_start_us = obs::MonotonicMicros();
  for (size_t i = 0; i < requests.size(); ++i) {
    QueryResponse& resp = responses[i];
    if (resp.status.ok() || resp.receipt.parallel) continue;
    if (resp.receipt.charged <= 0.0) continue;
    if (accountant_.Refund(resp.receipt).ok()) {
      if (audit_on) audit_refund(resp.receipt);
      resp.receipt.refunded = true;
      resp.receipt.remaining = accountant_.Remaining(resp.receipt.session);
    }
  }
  for (const auto& [key, group] : groups) {
    bool all_failed = true;
    bool group_charged = false;
    for (size_t m : group.members) {
      if (responses[m].status.ok()) all_failed = false;
      if (responses[m].receipt.parallel &&
          responses[m].receipt.charged > 0.0) {
        group_charged = true;
      }
    }
    if (!all_failed || !group_charged) continue;
    for (size_t m : group.members) {
      if (responses[m].receipt.charged > 0.0 &&
          accountant_.Refund(responses[m].receipt).ok()) {
        if (audit_on) audit_refund(responses[m].receipt);
        responses[m].receipt.refunded = true;
      }
    }
    for (size_t m : group.members) {
      responses[m].receipt.remaining = accountant_.Remaining(key.first);
    }
  }

  // Delivered charges can never be refunded again; settling them keeps
  // the accountant's refund-tracking state bounded by in-flight batches
  // rather than lifetime query count.
  for (QueryResponse& resp : responses) {
    if (resp.receipt.charge_id != 0 && !resp.receipt.refunded) {
      accountant_.Settle(resp.receipt);
      // One settle line per ledger charge: a parallel group's members
      // share a charge_id but only the argmax member carries it as
      // charged > 0 (and a refunded group never reaches here).
      if (audit_on && resp.receipt.charged > 0.0) {
        obs::TraceEvent event =
            new_audit_event("settle", resp.receipt.session);
        event.Uint("charge_id", resp.receipt.charge_id)
            .Double("charged", resp.receipt.charged);
        audit_events.push_back(std::move(event));
      }
    }
  }
  const uint64_t settle_end_us = obs::MonotonicMicros();

  // --- Telemetry epilogue (sequential, under serve_mu_): refusal
  // counters and, when a tracer is open, one span per query plus the
  // batch span. Spans are emitted after settlement so their receipt
  // fields are final, and in request order so a trace is stable for a
  // deterministic workload.
  size_t refused = 0;
  for (const QueryResponse& resp : responses) {
    if (!resp.status.ok()) {
      CountRefusal(resp.status.code());
      ++refused;
    }
  }
  batches_total_->Increment();
  const uint64_t batch_us = obs::MonotonicMicros() - batch_start_us;
  batch_latency_us_->Observe(batch_us);
  if (tracer_->enabled()) {
    auto phase_span = [&](const char* kind, uint64_t ts_us,
                          uint64_t end_us) {
      obs::TraceEvent span(kind);
      if (!options_.metrics_scope.empty()) {
        span.Str("tenant", options_.metrics_scope);
      }
      span.Uint("ts_us", ts_us).Uint("dur_us", end_us - ts_us);
      trace.Stamp(&span);
      tracer_->Write(std::move(span));
    };
    // The server-side engine phases of the causal tree:
    // validate+sensitivity, the h(D) scan, cooperative-drain execution,
    // and refund/settle. ts_us is CLOCK_MONOTONIC microseconds —
    // comparable across processes on one machine, so client and
    // server spans merge onto one timeline.
    phase_span("sensitivity", batch_start_us, sens_end_us);
    phase_span("scan", scan_start_us, scan_end_us);
    phase_span("execute", exec_phase_start_us, exec_phase_end_us);
    phase_span("settle", settle_start_us, settle_end_us);
    for (size_t i = 0; i < requests.size(); ++i) {
      const QueryResponse& resp = responses[i];
      obs::TraceEvent span("query");
      if (!options_.metrics_scope.empty()) {
        span.Str("tenant", options_.metrics_scope);
      }
      span.Str("kind", QueryKindName(requests[i]))
          .Str("label", resp.label)
          .Str("session", requests[i].session)
          .Str("status", StatusCodeToString(resp.status.code()))
          .Double("eps", resp.receipt.epsilon)
          .Double("charged", resp.receipt.charged)
          .Uint("charge_id", resp.receipt.charge_id)
          .Bool("cache_hit", resp.cache_hit)
          .Bool("refunded", resp.receipt.refunded)
          .Uint("ts_us", start_us[i])
          .Uint("dur_us", durations_us[i]);
      trace.Stamp(&span);
      tracer_->Write(std::move(span));
    }
    obs::TraceEvent span("batch");
    if (!options_.metrics_scope.empty()) {
      span.Str("tenant", options_.metrics_scope);
    }
    span.Uint("queries", requests.size())
        .Uint("refused", refused)
        .Uint("ts_us", batch_start_us)
        .Uint("dur_us", batch_us);
    trace.Stamp(&span);
    tracer_->Write(std::move(span));
  }

  // Audit lines last, in the exact order the ledger operations
  // happened (charges in request order, then refunds, then settles) —
  // which is what lets blowfish_audit replay them into a fresh
  // accountant and reproduce charge_ids exactly. Written here, under
  // serve_mu_ but off the accountant's mutex.
  for (obs::TraceEvent& event : audit_events) {
    audit_->Write(std::move(event));
  }

  return responses;
}

}  // namespace blowfish
