// End-to-end wire-protocol battery: an in-process blowfish_serverd
// (net/server.h, the daemon's guts) on an ephemeral port, driven by
// BlowfishClient (net/client.h), against the same EngineHost
// configuration served in-process. Asserts:
//
//  * bit-identical equivalence: for pool sizes {0, 1, 8}, every field
//    of every wire response — payload doubles, status, sensitivity,
//    receipts — equals the in-process SubmitBatch future's, byte for
//    byte (shortest round-trip text, std::to_chars, reads back to the
//    same IEEE bits);
//  * streamed RESULT frames carry the final payloads and arrive in
//    completion-callback order (pinned observable on a zero-worker
//    host, where completion order is request order);
//  * multi-client soak: 8 concurrent clients x 5 batches across two
//    tenants, exact budget arithmetic per session afterwards;
//  * failure-path refunds over the wire: a client killed mid-batch
//    leaves the tenant's BudgetAccountant at exactly the clean-run
//    spend (the receipt settle/refund protocol never hears about the
//    socket), including a query that fails after admission and
//    refunds;
//  * protocol errors are structured ERR frames, never crashes.

#include "net/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/policy.h"
#include "engine/ops/query_op.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/protocol.h"
#include "obs/audit.h"
#include "obs/jsonl.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/audit_replay.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/socket.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;
constexpr char kPolicyId[] = "p";
constexpr char kTenantA[] = "alpha";
constexpr char kTenantB[] = "beta";

/// A query kind that always fails *after* admission — registered only
/// in this test binary (one more proof the registry is open): its
/// charge must be refunded, and the refund must cross the wire in the
/// RECEIPT frames.
class AlwaysFailOp final : public QueryOp {
 public:
  std::string KindName() const override { return "always_fail"; }
  Status Parse(KeyValueBag&) override { return Status::OK(); }
  StatusOr<std::string> SensitivityShape() const override {
    return std::string("always_fail");
  }
  StatusOr<double> ComputeSensitivity(
      const Policy&, const SensitivityEnv&) const override {
    return 1.0;
  }
  StatusOr<std::vector<double>> Execute(const QueryExecContext&,
                                        Random) const override {
    return Status::Internal("injected mid-batch failure");
  }
};

const QueryOpRegistrar kFailRegistrar{
    "always_fail", [] { return std::make_unique<AlwaysFailOp>(); }};

/// A query kind whose Execute blocks on a test-controlled gate. The
/// client-death test closes the gate, kills the client after the first
/// streamed RESULT, then opens it — so the connection is provably dead
/// *before* the batch barrier, deterministically, with no sleeps.
std::mutex g_gate_mu;
std::condition_variable g_gate_cv;
bool g_gate_open = true;

void SetGate(bool open) {
  {
    std::lock_guard<std::mutex> lock(g_gate_mu);
    g_gate_open = open;
  }
  g_gate_cv.notify_all();
}

class SlowGateOp final : public QueryOp {
 public:
  std::string KindName() const override { return "slow_gate"; }
  Status Parse(KeyValueBag&) override { return Status::OK(); }
  StatusOr<std::string> SensitivityShape() const override {
    return std::string("slow_gate");
  }
  StatusOr<double> ComputeSensitivity(
      const Policy&, const SensitivityEnv&) const override {
    return 1.0;
  }
  StatusOr<std::vector<double>> Execute(const QueryExecContext&,
                                        Random) const override {
    std::unique_lock<std::mutex> lock(g_gate_mu);
    g_gate_cv.wait(lock, []() { return g_gate_open; });
    return std::vector<double>{0.0};
  }
};

const QueryOpRegistrar kGateRegistrar{
    "slow_gate", [] { return std::make_unique<SlowGateOp>(); }};

std::shared_ptr<const Domain> LineDomain(uint64_t size) {
  return std::make_shared<const Domain>(Domain::Line(size).value());
}

Dataset MakeData(const std::shared_ptr<const Domain>& domain, size_t n,
                 uint64_t seed) {
  Random rng(seed);
  std::vector<ValueIndex> tuples;
  tuples.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    tuples.push_back(static_cast<ValueIndex>(
        rng.UniformInt(0, static_cast<int64_t>(domain->size()) - 1)));
  }
  return Dataset::Create(domain, std::move(tuples)).value();
}

/// Two tenants sharing one policy shape over different datasets — the
/// shared-sensitivity-cache configuration of docs/server.md. `metrics`,
/// `tracer`, and `audit`, when set, wire the host into a test-local
/// registry / span writer / audit sink (nullptr = the process-wide
/// defaults, like production).
std::unique_ptr<EngineHost> MakeHost(size_t pool_threads,
                                     obs::MetricsRegistry* metrics = nullptr,
                                     obs::TraceWriter* tracer = nullptr,
                                     obs::AuditLog* audit = nullptr) {
  EngineHostOptions options;
  options.num_threads = pool_threads;
  options.root_seed = kSeed;
  options.metrics = metrics;
  options.tracer = tracer;
  options.audit = audit;
  auto domain = LineDomain(32);
  Policy policy = Policy::FullDomain(domain).value();
  auto host = std::make_unique<EngineHost>(options);
  EXPECT_TRUE(
      host->AddTenant(kPolicyId, kTenantA, policy, MakeData(domain, 300, 3))
          .ok());
  EXPECT_TRUE(
      host->AddTenant(kPolicyId, kTenantB, policy, MakeData(domain, 200, 5))
          .ok());
  return host;
}

constexpr char kBatchText[] =
    "histogram eps=0.25 label=h\n"
    "mean eps=0.125 label=m session=s1\n"
    "range eps=0.25 lo=2 hi=9 label=r\n"
    "quantiles eps=0.125 qs=0.25,0.5 label=q\n";

void ExpectResponsesEqual(const std::vector<QueryResponse>& wire,
                          const std::vector<QueryResponse>& local,
                          const std::string& context) {
  ASSERT_EQ(wire.size(), local.size()) << context;
  for (size_t i = 0; i < wire.size(); ++i) {
    SCOPED_TRACE(context + ", query " + std::to_string(i));
    EXPECT_EQ(wire[i].status.code(), local[i].status.code());
    EXPECT_EQ(wire[i].status.message(), local[i].status.message());
    EXPECT_EQ(wire[i].label, local[i].label);
    EXPECT_EQ(wire[i].sensitivity, local[i].sensitivity);
    EXPECT_EQ(wire[i].cache_hit, local[i].cache_hit);
    ASSERT_EQ(wire[i].values.size(), local[i].values.size());
    for (size_t v = 0; v < wire[i].values.size(); ++v) {
      // Exact equality: the wire must not perturb a single bit.
      EXPECT_EQ(wire[i].values[v], local[i].values[v]) << "value " << v;
    }
    EXPECT_EQ(wire[i].receipt.session, local[i].receipt.session);
    EXPECT_EQ(wire[i].receipt.label, local[i].receipt.label);
    EXPECT_EQ(wire[i].receipt.charge_id, local[i].receipt.charge_id);
    EXPECT_EQ(wire[i].receipt.charged, local[i].receipt.charged);
    EXPECT_EQ(wire[i].receipt.epsilon, local[i].receipt.epsilon);
    EXPECT_EQ(wire[i].receipt.remaining, local[i].receipt.remaining);
    EXPECT_EQ(wire[i].receipt.parallel, local[i].receipt.parallel);
    EXPECT_EQ(wire[i].receipt.refunded, local[i].receipt.refunded);
  }
}

TEST(NetE2eTest, WireIsBitIdenticalToInProcessAcrossPoolSizes) {
  for (size_t pool : {size_t{0}, size_t{1}, size_t{8}}) {
    // Two hosts built identically: one serves in-process, one over the
    // wire. Batches run in the same global order on both, so admission
    // histories — and therefore noise streams, receipts, charge ids,
    // and cache hit patterns — match exactly.
    auto local_host = MakeHost(pool);
    auto wire_host = MakeHost(pool);
    auto server = BlowfishServer::Start(wire_host.get());
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    auto client_a = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                            kPolicyId, kTenantA);
    ASSERT_TRUE(client_a.ok()) << client_a.status().ToString();
    auto client_b = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                            kPolicyId, kTenantB);
    ASSERT_TRUE(client_b.ok()) << client_b.status().ToString();

    for (int round = 0; round < 3; ++round) {
      for (const char* tenant : {kTenantA, kTenantB}) {
        const std::string context = "pool " + std::to_string(pool) +
                                    ", round " + std::to_string(round) +
                                    ", tenant " + tenant;
        auto requests = EngineHost::ParseBatchText(kBatchText);
        ASSERT_TRUE(requests.ok());
        auto local = local_host
                         ->SubmitBatch(kPolicyId, tenant,
                                       std::move(*requests))
                         .get();
        ASSERT_TRUE(local.ok()) << local.status().ToString();

        BlowfishClient* client =
            tenant == std::string(kTenantA) ? client_a->get()
                                            : client_b->get();
        auto wire = client->SubmitBatchText(kBatchText);
        ASSERT_TRUE(wire.ok()) << context << ": "
                               << wire.status().ToString();
        ExpectResponsesEqual(*wire, *local, context);
      }
    }
    EXPECT_TRUE((*client_a)->Bye().ok());
    EXPECT_TRUE((*client_b)->Bye().ok());
    (*server)->Stop();
    const BlowfishServer::Stats stats = (*server)->stats();
    EXPECT_EQ(stats.connections, 2u);
    EXPECT_EQ(stats.batches, 6u);
    EXPECT_EQ(stats.protocol_errors, 0u);
  }
}

TEST(NetE2eTest, StreamedResultsCarryFinalPayloadsInCompletionOrder) {
  // Zero pool workers: execution is inline, so completion order is
  // request order — the one scheduling where "consistent with
  // completion callbacks" is an exact, assertable sequence.
  auto host = MakeHost(0);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok());

  std::vector<size_t> streamed_order;
  std::vector<QueryResponse> streamed;
  auto responses = (*client)->SubmitBatchText(
      kBatchText, [&](size_t index, const QueryResponse& response) {
        streamed_order.push_back(index);
        streamed.push_back(response);
      });
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(streamed_order.size(), responses->size());
  for (size_t i = 0; i < streamed_order.size(); ++i) {
    EXPECT_EQ(streamed_order[i], i);  // request order on 0 workers
    const QueryResponse& early = streamed[i];
    const QueryResponse& final_response = (*responses)[streamed_order[i]];
    // The streamed payload is already final; only receipts may differ
    // (settlement happens at the batch barrier).
    EXPECT_EQ(early.status.code(), final_response.status.code());
    EXPECT_EQ(early.label, final_response.label);
    ASSERT_EQ(early.values.size(), final_response.values.size());
    for (size_t v = 0; v < early.values.size(); ++v) {
      EXPECT_EQ(early.values[v], final_response.values[v]);
    }
  }
  EXPECT_TRUE((*client)->Bye().ok());
}

TEST(NetE2eTest, MultiClientSoakKeepsBudgetArithmeticExact) {
  constexpr size_t kClients = 8;
  constexpr int kBatches = 5;
  // Per batch: 0.25 + 0.125 + 0.25 + 0.125, charged to the client's own
  // session (sessions are created on first charge with the tenant's
  // default budget, 10 — five batches spend 3.75).
  constexpr double kBatchSpend = 0.75;

  // A test-local registry shared by host and server: the STATS totals
  // at the end must reconcile exactly against the soak's arithmetic.
  // The audit log records every one of the soak's interleaved charges
  // and is replay-verified against both tenants' ledgers at the end.
  obs::MetricsRegistry registry;
  obs::AuditLog audit;
  const std::string audit_path =
      ::testing::TempDir() + "/net_e2e_soak_audit.jsonl";
  ASSERT_TRUE(audit.Open(audit_path));
  auto host = MakeHost(4, &registry, nullptr, &audit);
  ServerOptions server_options;
  server_options.metrics = &registry;
  auto server = BlowfishServer::Start(host.get(), server_options);
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t k = 0; k < kClients; ++k) {
    clients.emplace_back([&, k]() {
      const char* tenant = (k % 2 == 0) ? kTenantA : kTenantB;
      const std::string session = "c" + std::to_string(k);
      // The same four kinds, all charged to this client's session.
      const std::string batch =
          "histogram eps=0.25 session=" + session + "\n" +
          "mean eps=0.125 session=" + session + "\n" +
          "range eps=0.25 lo=2 hi=9 session=" + session + "\n" +
          "quantiles eps=0.125 qs=0.25,0.5 session=" + session + "\n";
      auto client =
          BlowfishClient::Connect("127.0.0.1", port, kPolicyId, tenant);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int b = 0; b < kBatches; ++b) {
        auto responses = (*client)->SubmitBatchText(batch);
        if (!responses.ok() || responses->size() != 4) {
          ++failures;
          return;
        }
        for (const QueryResponse& response : *responses) {
          if (!response.status.ok()) ++failures;
        }
      }
      if (!(*client)->Bye().ok()) ++failures;
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Exact accounting: concurrency must not lose or double a single
  // charge. Each client's session exists on exactly its own tenant.
  for (size_t k = 0; k < kClients; ++k) {
    const char* tenant = (k % 2 == 0) ? kTenantA : kTenantB;
    const char* other = (k % 2 == 0) ? kTenantB : kTenantA;
    const std::string session = "c" + std::to_string(k);
    auto engine = host->engine(kPolicyId, tenant);
    ASSERT_TRUE(engine.ok());
    EXPECT_EQ((*engine)->accountant().Spent(session),
              kBatches * kBatchSpend)
        << session;
    auto other_engine = host->engine(kPolicyId, other);
    ASSERT_TRUE(other_engine.ok());
    EXPECT_EQ((*other_engine)->accountant().Spent(session), 0.0)
        << session;
  }

  // The same arithmetic over the wire: one-shot STATS (no HELLO). Every
  // client thread is joined, and each client read the server's frames
  // before exiting, so every server-side counter increment
  // happens-before this snapshot. The snapshot is taken before the
  // METRIC frames are written, so the expected frame counts include the
  // STATS request itself but not its reply.
  auto samples = BlowfishClient::FetchStats("127.0.0.1", port);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto metric = [&](const std::string& name) -> double {
    for (const MetricSample& sample : *samples) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "metric " << name << " missing from STATS";
    return -1.0;
  };
  const double kQueries = kClients * kBatches * 4.0;
  EXPECT_EQ(metric("net_connections_total"), kClients + 1.0);
  EXPECT_EQ(metric("net_batches_total"),
            static_cast<double>(kClients * kBatches));
  // Per client: HELLO + kBatches*(SUBMIT + 4 REQ) + BYE frames in; the
  // stats connection adds its STATS frame.
  EXPECT_EQ(metric("net_frames_in_total"),
            kClients * (2.0 + kBatches * 5.0) + 1.0);
  // Per client: OK + kBatches*(4 RESULT + 4 RECEIPT + DONE) + OK.
  EXPECT_EQ(metric("net_frames_out_total"),
            kClients * (2.0 + kBatches * 9.0));
  EXPECT_EQ(metric("net_connections_dead_total"), 0.0);
  EXPECT_EQ(metric("net_send_deadline_expired_total"), 0.0);
  EXPECT_EQ(metric("net_drain_escalations_total"), 0.0);
  // Engine layer, same snapshot: per-kind query counts and per-tenant
  // spend. 0.25/0.125 are binary-exact, so the double sums are exact.
  EXPECT_EQ(metric("engine_batches_total"),
            static_cast<double>(kClients * kBatches));
  for (const char* kind : {"histogram", "mean", "range", "quantiles"}) {
    EXPECT_EQ(metric(std::string("engine_queries_total{kind=") + kind +
                     "}"),
              kClients * kBatches * 1.0)
        << kind;
  }
  const double per_tenant_eps = (kClients / 2.0) * kBatches * kBatchSpend;
  EXPECT_EQ(metric("budget_eps_charged_total{tenant=p/alpha}"),
            per_tenant_eps);
  EXPECT_EQ(metric("budget_eps_charged_total{tenant=p/beta}"),
            per_tenant_eps);
  EXPECT_EQ(metric("budget_charges_total{tenant=p/alpha}"), kQueries / 2);
  EXPECT_EQ(metric("budget_charges_total{tenant=p/beta}"), kQueries / 2);
  EXPECT_EQ(metric("budget_refusals_total{tenant=p/alpha}"), 0.0);
  EXPECT_EQ(metric("budget_eps_refunded_total{tenant=p/alpha}"), 0.0);
  // Cache accounting: one lookup per query. The batch's four kinds map
  // to 3 distinct sensitivity shapes; concurrent first-touch of a shape
  // may compute twice (both engines miss before either inserts), so
  // misses is >= 3, but lookups never go missing.
  EXPECT_EQ(metric("sensitivity_cache_hits_total") +
                metric("sensitivity_cache_misses_total"),
            kQueries);
  EXPECT_GE(metric("sensitivity_cache_misses_total"), 3.0);
  // Latency histograms carry one sample per query.
  EXPECT_EQ(metric("engine_query_latency_us_count{kind=histogram}"),
            kClients * kBatches * 1.0);

  (*server)->Stop();
  EXPECT_EQ((*server)->stats().batches, kClients * kBatches);
  audit.Close();

  // The headline audit guarantee under concurrency: 8 clients' charges
  // interleaved arbitrarily, yet each tenant's slice of the log replays
  // into a fresh accountant whose persisted ledger matches the live
  // one BYTE for byte — same charge ids, same double arithmetic.
  for (const char* tenant : {kTenantA, kTenantB}) {
    auto engine = host->engine(kPolicyId, tenant);
    ASSERT_TRUE(engine.ok());
    std::ostringstream ledger;
    ASSERT_TRUE((*engine)->accountant().Save(ledger).ok());
    std::ifstream audit_in(audit_path);
    ASSERT_TRUE(audit_in.good());
    auto replay = VerifyAuditReplay(
        audit_in, std::string(kPolicyId) + "/" + tenant, ledger.str());
    ASSERT_TRUE(replay.ok()) << tenant << ": "
                             << replay.status().ToString();
    // Half the clients, all their charges and settlements; the other
    // tenant's lines are the skipped ones.
    EXPECT_EQ(replay->charges, kClients / 2 * kBatches * 4u) << tenant;
    EXPECT_EQ(replay->refunds, 0u) << tenant;
    EXPECT_GT(replay->skipped, 0u) << tenant;
  }
}

TEST(NetE2eTest, StatsVerbReportsExactSingleConnectionArithmetic) {
  // One connection, one batch, then STATS on the same connection: every
  // expected value is computable client-side, down to the byte. The
  // client knows exactly which frames it shipped (and their encoded
  // sizes), and the server snapshots the registry before writing the
  // reply — so frames-in includes the STATS request, frames-out stops
  // at the batch's DONE.
  obs::MetricsRegistry registry;
  auto host = MakeHost(2, &registry);
  ServerOptions server_options;
  server_options.metrics = &registry;
  auto server = BlowfishServer::Start(host.get(), server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto responses = (*client)->SubmitBatchText(kBatchText);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 4u);

  // Reconstruct the exact bytes the server has received: HELLO, SUBMIT,
  // the four REQ frames, and the STATS request (4-byte length prefix
  // each, via the same EncodeFrame the client uses).
  std::vector<std::string> shipped = {
      EncodeHelloPayload(kPolicyId, kTenantA), EncodeSubmitPayload(4)};
  std::string text(kBatchText);
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    shipped.push_back(EncodeReqPayload(text.substr(pos, nl - pos)));
    pos = nl + 1;
  }
  shipped.push_back(EncodeStatsPayload());
  double expected_bytes_in = 0;
  for (const std::string& payload : shipped) {
    expected_bytes_in += static_cast<double>(EncodeFrame(payload).size());
  }

  auto samples = (*client)->FetchStats();
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto metric = [&](const std::string& name) -> double {
    for (const MetricSample& sample : *samples) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "metric " << name << " missing from STATS";
    return -1.0;
  };
  EXPECT_EQ(metric("net_connections_total"), 1.0);
  EXPECT_EQ(metric("net_connections_active"), 1.0);
  // HELLO + SUBMIT + 4 REQ + STATS.
  EXPECT_EQ(metric("net_frames_in_total"), 7.0);
  EXPECT_EQ(metric("net_bytes_in_total"), expected_bytes_in);
  // OK + 4 RESULT + 4 RECEIPT + DONE; the METRIC frames come after the
  // snapshot.
  EXPECT_EQ(metric("net_frames_out_total"), 10.0);
  EXPECT_GE(metric("net_bytes_out_total"), 10.0 * 4);
  EXPECT_EQ(metric("net_batches_total"), 1.0);
  EXPECT_EQ(metric("engine_batches_total"), 1.0);
  EXPECT_EQ(metric("engine_queries_total{kind=histogram}"), 1.0);
  EXPECT_EQ(metric("engine_eps_charged_total{kind=histogram}"), 0.25);
  EXPECT_EQ(metric("engine_eps_charged_total{kind=mean}"), 0.125);
  EXPECT_EQ(metric("budget_eps_charged_total{tenant=p/alpha}"), 0.75);
  EXPECT_EQ(metric("budget_charges_total{tenant=p/alpha}"), 4.0);
  // The four kinds map to 3 distinct sensitivity shapes (two share
  // one), all first-touch: 3 misses, then 1 hit, serialized — exact.
  EXPECT_EQ(metric("sensitivity_cache_misses_total"), 3.0);
  EXPECT_EQ(metric("sensitivity_cache_hits_total"), 1.0);
  EXPECT_EQ(metric("engine_query_latency_us_count{kind=mean}"), 1.0);

  EXPECT_TRUE((*client)->Bye().ok());
}

TEST(NetE2eTest, TelemetryDoesNotPerturbServedBytes) {
  // The determinism invariant of ISSUE scope: with a live registry AND
  // an enabled span tracer on the serving host, every wire response is
  // still bit-identical to an untelemetered in-process host's. Metrics
  // and spans observe completions; they never touch RNG streams or
  // reorder anything.
  for (size_t pool : {size_t{0}, size_t{8}}) {
    auto local_host = MakeHost(pool);  // process defaults, tracer off
    obs::MetricsRegistry registry;
    obs::TraceWriter tracer;
    const std::string trace_path =
        ::testing::TempDir() + "/net_e2e_trace_" + std::to_string(pool) +
        ".jsonl";
    ASSERT_TRUE(tracer.Open(trace_path));
    auto wire_host = MakeHost(pool, &registry, &tracer);
    ServerOptions server_options;
    server_options.metrics = &registry;
    auto server = BlowfishServer::Start(wire_host.get(), server_options);
    ASSERT_TRUE(server.ok());

    auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                          kPolicyId, kTenantA);
    ASSERT_TRUE(client.ok());
    for (int round = 0; round < 3; ++round) {
      auto requests = EngineHost::ParseBatchText(kBatchText);
      ASSERT_TRUE(requests.ok());
      auto local = local_host
                       ->SubmitBatch(kPolicyId, kTenantA,
                                     std::move(*requests))
                       .get();
      ASSERT_TRUE(local.ok());
      auto wire = (*client)->SubmitBatchText(kBatchText);
      ASSERT_TRUE(wire.ok()) << wire.status().ToString();
      ExpectResponsesEqual(*wire, *local,
                           "telemetry on, pool " + std::to_string(pool) +
                               ", round " + std::to_string(round));
    }
    EXPECT_TRUE((*client)->Bye().ok());
    (*server)->Stop();
    tracer.Close();

    // The spans really were written: 3 batches x (queue_wait +
    // sensitivity + scan + execute + settle phase spans + 4 query spans
    // + 1 batch span), one JSON object per line. The server-side
    // frame_write span is absent — this host's tracer is not wired
    // into the ServerOptions, mirroring a daemon run where only the
    // engine layer traces.
    std::ifstream trace(trace_path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(trace, line)) lines.push_back(line);
    ASSERT_EQ(lines.size(), 30u);
    for (const std::string& l : lines) {
      EXPECT_EQ(l.front(), '{');
      EXPECT_EQ(l.back(), '}');
      EXPECT_NE(l.find("\"tenant\":\"p/alpha\""), std::string::npos);
    }
  }
}

TEST(NetE2eTest, ClientDeathMidBatchSettlesLikeACleanRun) {
  // The batch charges 0.25 + 0.5 + 0.125; the injected failure refunds
  // its 0.5 at the batch barrier, so a clean run settles at 0.375. The
  // gated query holds the batch open in the death run.
  const std::string batch =
      "histogram eps=0.25\n"
      "always_fail eps=0.5\n"
      "slow_gate eps=0.125\n";
  constexpr double kSettledSpend = 0.25 + 0.125;

  // Clean run: gate open, read everything, assert the refund crossed
  // the wire.
  SetGate(true);
  auto clean_host = MakeHost(2);
  auto clean_server = BlowfishServer::Start(clean_host.get());
  ASSERT_TRUE(clean_server.ok());
  auto clean_client = BlowfishClient::Connect(
      "127.0.0.1", (*clean_server)->port(), kPolicyId, kTenantA);
  ASSERT_TRUE(clean_client.ok());
  auto clean = (*clean_client)->SubmitBatchText(batch);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->size(), 3u);
  EXPECT_TRUE((*clean)[0].status.ok());
  EXPECT_EQ((*clean)[1].status.code(), StatusCode::kInternal);
  EXPECT_TRUE((*clean)[1].receipt.refunded);  // via the RECEIPT frame
  EXPECT_EQ((*clean)[1].receipt.charged, 0.5);
  EXPECT_TRUE((*clean)[2].status.ok());
  EXPECT_TRUE((*clean_client)->Bye().ok());
  (*clean_server)->Stop();
  auto clean_engine = clean_host->engine(kPolicyId, kTenantA);
  ASSERT_TRUE(clean_engine.ok());
  EXPECT_EQ((*clean_engine)->accountant().Spent(""), kSettledSpend);

  // Death run: the gate is closed, so the batch cannot reach its
  // barrier until the test opens it — which happens only *after* the
  // client hard-drops the connection on its first streamed RESULT. The
  // connection is therefore provably dead mid-batch, deterministically.
  // Server::Stop() drains the connection thread (the batch completes
  // engine-side first), so afterwards the ledger must have settled to
  // exactly the clean-run figure — charges kept for delivered-or-not
  // successes, the failed query refunded, nothing leaked.
  SetGate(false);
  obs::AuditLog death_audit;
  const std::string death_audit_path =
      ::testing::TempDir() + "/net_e2e_death_audit.jsonl";
  ASSERT_TRUE(death_audit.Open(death_audit_path));
  auto death_host = MakeHost(2, nullptr, nullptr, &death_audit);
  auto death_server = BlowfishServer::Start(death_host.get());
  ASSERT_TRUE(death_server.ok());
  auto death_client = BlowfishClient::Connect(
      "127.0.0.1", (*death_server)->port(), kPolicyId, kTenantA);
  ASSERT_TRUE(death_client.ok());
  std::atomic<bool> aborted{false};
  auto death = (*death_client)
                   ->SubmitBatchText(
                       batch, [&](size_t, const QueryResponse&) {
                         if (aborted.exchange(true)) return;
                         (*death_client)->Abort();
                         SetGate(true);
                       });
  EXPECT_FALSE(death.ok());  // the connection died under the batch
  SetGate(true);             // in case no RESULT ever arrived
  (*death_server)->Stop();   // barrier: connection thread joined
  EXPECT_TRUE(aborted.load());
  auto death_engine = death_host->engine(kPolicyId, kTenantA);
  ASSERT_TRUE(death_engine.ok());
  EXPECT_EQ((*death_engine)->accountant().Spent(""), kSettledSpend);
  death_audit.Close();

  // The audit log of the killed-client run replays to exactly the
  // settled ledger — the refund of the failed query included. The
  // socket's death is invisible to the privacy accounting, and the log
  // proves it.
  std::ostringstream death_ledger;
  ASSERT_TRUE((*death_engine)->accountant().Save(death_ledger).ok());
  std::ifstream death_audit_in(death_audit_path);
  ASSERT_TRUE(death_audit_in.good());
  auto replay = VerifyAuditReplay(
      death_audit_in, std::string(kPolicyId) + "/" + kTenantA,
      death_ledger.str());
  ASSERT_TRUE(replay.ok()) << replay.status().ToString();
  EXPECT_EQ(replay->charges, 3u);
  EXPECT_EQ(replay->refunds, 1u);  // always_fail's 0.5 came back
}

TEST(NetE2eTest, TraceContextJoinsClientAndServerSpans) {
  // The tentpole contract: the client mints deterministic trace/span
  // ids from Random::Fork streams, carries them on SUBMIT, and the
  // server echoes them on every reply frame and stamps every
  // server-side span and audit line with them — so concatenating the
  // two JSONL files yields one causal tree per batch
  // (`blowfish_cli trace`). Tracing must not perturb one served byte.
  obs::MetricsRegistry registry;
  obs::TraceWriter server_tracer;
  obs::TraceWriter client_tracer;
  obs::AuditLog audit;
  const std::string server_path =
      ::testing::TempDir() + "/net_e2e_trace_server.jsonl";
  const std::string client_path =
      ::testing::TempDir() + "/net_e2e_trace_client.jsonl";
  const std::string audit_path =
      ::testing::TempDir() + "/net_e2e_trace_audit.jsonl";
  ASSERT_TRUE(server_tracer.Open(server_path));
  ASSERT_TRUE(client_tracer.Open(client_path));
  ASSERT_TRUE(audit.Open(audit_path));

  auto host = MakeHost(2, &registry, &server_tracer, &audit);
  ServerOptions server_options;
  server_options.metrics = &registry;
  server_options.tracer = &server_tracer;
  auto server = BlowfishServer::Start(host.get(), server_options);
  ASSERT_TRUE(server.ok());

  auto reference = MakeHost(2);  // untraced control host

  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok());
  (*client)->EnableTracing(&client_tracer, kSeed);
  constexpr int kRounds = 2;
  for (int round = 0; round < kRounds; ++round) {
    auto requests = EngineHost::ParseBatchText(kBatchText);
    ASSERT_TRUE(requests.ok());
    auto local =
        reference->SubmitBatch(kPolicyId, kTenantA, std::move(*requests))
            .get();
    ASSERT_TRUE(local.ok());
    auto wire = (*client)->SubmitBatchText(kBatchText);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    ExpectResponsesEqual(*wire, *local,
                         "traced round " + std::to_string(round));
  }
  EXPECT_TRUE((*client)->Bye().ok());
  (*server)->Stop();
  server_tracer.Close();
  client_tracer.Close();
  audit.Close();

  // The ids are pinned by contract, reproducible by any reader: the
  // trace id is the first draw of Fork(0) of the client's seed, batch
  // k's span id the first draw of Fork(k + 1), zero remapped to 1.
  auto draw = [](uint64_t stream) {
    const uint64_t id = Random(kSeed).Fork(stream).engine()();
    return id != 0 ? id : uint64_t{1};
  };
  const std::string trace_id = std::to_string(draw(0));
  const std::vector<std::string> span_ids = {std::to_string(draw(1)),
                                             std::to_string(draw(2))};

  struct FileSpans {
    std::set<std::string> kinds;
    std::set<std::string> spans;
    size_t stamped = 0;
    size_t total = 0;
  };
  auto scan = [&](const std::string& path) {
    FileSpans out;
    std::ifstream in(path);
    std::string line;
    std::vector<obs::JsonField> fields;
    while (std::getline(in, line)) {
      ++out.total;
      if (!obs::ParseFlatJsonLine(line, &fields)) {
        ADD_FAILURE() << "unparseable span line: " << line;
        continue;
      }
      const obs::JsonField* trace = obs::FindJsonField(fields, "trace");
      if (trace == nullptr) continue;
      ++out.stamped;
      EXPECT_EQ(trace->value, trace_id) << line;
      const obs::JsonField* span_id =
          obs::FindJsonField(fields, "span_id");
      if (span_id != nullptr) out.spans.insert(span_id->value);
      const obs::JsonField* kind = obs::FindJsonField(fields, "span");
      if (kind != nullptr) out.kinds.insert(kind->value);
    }
    return out;
  };

  const FileSpans server_spans = scan(server_path);
  const FileSpans client_spans = scan(client_path);
  // Every line on both sides is stamped, and both sides know both
  // batches' span ids — the files concatenate into one tree.
  EXPECT_EQ(client_spans.stamped, client_spans.total);
  EXPECT_EQ(server_spans.stamped, server_spans.total);
  EXPECT_GT(server_spans.total, 0u);
  EXPECT_EQ(client_spans.kinds,
            (std::set<std::string>{"client_send", "client_decode",
                                   "client_assemble"}));
  for (const std::string& id : span_ids) {
    EXPECT_TRUE(client_spans.spans.count(id)) << "client missing " << id;
    EXPECT_TRUE(server_spans.spans.count(id)) << "server missing " << id;
  }
  // The server tree covers the full life of a batch, wire receipt to
  // frame flush.
  for (const char* kind :
       {"queue_wait", "sensitivity", "execute", "settle", "query",
        "batch", "frame_write"}) {
    EXPECT_TRUE(server_spans.kinds.count(kind)) << "missing " << kind;
  }

  // Every audit line resolves into that tree: same trace id, a span id
  // the span files know. 2 batches x (4 charges + 4 settles).
  std::ifstream audit_in(audit_path);
  std::string line;
  std::vector<obs::JsonField> fields;
  size_t audit_lines = 0;
  while (std::getline(audit_in, line)) {
    ++audit_lines;
    if (!obs::ParseFlatJsonLine(line, &fields)) {
      ADD_FAILURE() << "unparseable audit line: " << line;
      continue;
    }
    const obs::JsonField* trace = obs::FindJsonField(fields, "trace");
    ASSERT_NE(trace, nullptr) << line;
    EXPECT_EQ(trace->value, trace_id) << line;
    const obs::JsonField* span_id = obs::FindJsonField(fields, "span_id");
    ASSERT_NE(span_id, nullptr) << line;
    EXPECT_TRUE(server_spans.spans.count(span_id->value)) << line;
  }
  EXPECT_EQ(audit_lines, kRounds * 8u);
}

TEST(NetE2eTest, UnknownKeysRideKnownVerbsUnharmed) {
  // The protocol's evolution contract (net/protocol.h): parsers accept
  // and ignore unknown `key=value` tokens on known verbs, so a newer
  // peer can talk to an older one with no flag day. trace=/span= ride
  // SUBMIT exactly this way — an old server would serve the batch
  // ignoring them; this one must echo them on every reply frame.
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto sock = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sock.ok());
  auto send_payload = [&](const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  };
  FrameDecoder decoder;
  char buf[4096];
  auto read_payload = [&]() {
    std::string payload;
    while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
      auto n = sock->Recv(buf, sizeof(buf));
      EXPECT_TRUE(n.ok());
      if (!n.ok() || *n == 0) return std::string();
      decoder.Feed(buf, *n);
    }
    return payload;
  };

  // HELLO carrying a key from the future.
  send_payload(EncodeHelloPayload(kPolicyId, kTenantA) + " shiny=new");
  EXPECT_NE(read_payload().find(kVerbOk), std::string::npos);

  // SUBMIT carrying both an unknown key and a trace context.
  send_payload(EncodeSubmitPayload(1) + " trace=7 span=9 future=maybe");
  send_payload(EncodeReqPayload("histogram eps=0.25"));
  std::vector<std::string> replies;
  while (true) {
    const std::string payload = read_payload();
    ASSERT_FALSE(payload.empty());
    auto msg = ParseWireMessage(payload);
    ASSERT_TRUE(msg.ok()) << payload;
    ASSERT_NE(msg->verb, std::string(kVerbErr)) << payload;
    replies.push_back(payload);
    if (msg->verb == kVerbDone) break;
  }
  // RESULT + RECEIPT + DONE, each echoing the ids it was given.
  ASSERT_EQ(replies.size(), 3u);
  for (const std::string& payload : replies) {
    EXPECT_NE(payload.find(" trace=7"), std::string::npos) << payload;
    EXPECT_NE(payload.find(" span=9"), std::string::npos) << payload;
  }
}

TEST(NetE2eTest, HealthVerbReportsReadinessAndBudgetGauges) {
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // Spend some budget first so the gauges have arithmetic to report.
  auto client =
      BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok());
  auto responses = (*client)->SubmitBatchText(kBatchText);
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();

  // One-shot probe: HEALTH needs no HELLO, exactly like STATS.
  auto samples = BlowfishClient::FetchHealth("127.0.0.1", port);
  ASSERT_TRUE(samples.ok()) << samples.status().ToString();
  auto metric = [&](const std::string& name) -> double {
    for (const MetricSample& sample : *samples) {
      if (sample.name == name) return sample.value;
    }
    ADD_FAILURE() << "sample " << name << " missing from HEALTH";
    return -1.0;
  };
  EXPECT_EQ(metric("health_ready"), 1.0);
  EXPECT_EQ(metric("health_draining"), 0.0);
  EXPECT_GT(metric("health_uptime_us"), 0.0);
  // The probing connection itself plus the persistent client.
  EXPECT_GE(metric("health_connections_active"), 1.0);
  // kBatchText spends 0.25 + 0.25 + 0.125 on the default session and
  // 0.125 on s1 against the tenant default budget of 10 — all
  // binary-exact doubles, so the gauges are exact. Tenant beta has
  // served nothing, and a health probe must not lazily construct its
  // engine, so only alpha's sessions appear.
  EXPECT_EQ(metric("health_budget_remaining{tenant=p/alpha,"
                   "session=default}"),
            10.0 - 0.625);
  EXPECT_EQ(metric("health_budget_remaining{tenant=p/alpha,session=s1}"),
            10.0 - 0.125);
  for (const MetricSample& sample : *samples) {
    EXPECT_EQ(sample.name.find("tenant=p/beta"), std::string::npos)
        << sample.name;
  }
  EXPECT_TRUE((*client)->Bye().ok());
}

TEST(NetE2eTest, ProtocolViolationsGetStructuredErrors) {
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  const uint16_t port = (*server)->port();

  // Unknown tenant: the server's structured NotFound crosses the wire.
  auto unknown =
      BlowfishClient::Connect("127.0.0.1", port, kPolicyId, "nope");
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);

  // Garbage instead of HELLO: structured ERR frame, then close.
  {
    auto sock = Socket::ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(sock.ok());
    const std::string frame = EncodeFrame("NOTAVERB");
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
    FrameDecoder decoder;
    char buf[1024];
    std::string payload;
    while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
      auto n = sock->Recv(buf, sizeof(buf));
      ASSERT_TRUE(n.ok());
      ASSERT_GT(*n, 0u);
      decoder.Feed(buf, *n);
    }
    auto msg = ParseWireMessage(payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->verb, std::string(kVerbErr));
    Status error;
    ASSERT_TRUE(ParseStatusFields(*msg, &error).ok());
    EXPECT_EQ(error.code(), StatusCode::kFailedPrecondition);
  }

  // An oversized length prefix poisons the connection with ERR.
  {
    auto sock = Socket::ConnectTcp("127.0.0.1", port);
    ASSERT_TRUE(sock.ok());
    const char huge[4] = {0x7f, 0x7f, 0x7f, 0x7f};
    ASSERT_TRUE(sock->SendAll(huge, sizeof(huge)).ok());
    FrameDecoder decoder;
    char buf[1024];
    std::string payload;
    while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
      auto n = sock->Recv(buf, sizeof(buf));
      ASSERT_TRUE(n.ok());
      ASSERT_GT(*n, 0u);
      decoder.Feed(buf, *n);
    }
    auto msg = ParseWireMessage(payload);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->verb, std::string(kVerbErr));
  }

  // A malformed batch is an ERR, and the connection stays usable.
  {
    auto client =
        BlowfishClient::Connect("127.0.0.1", port, kPolicyId, kTenantA);
    ASSERT_TRUE(client.ok());
    auto bad = (*client)->SubmitBatchText("no_such_kind eps=0.5\n");
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
    auto good = (*client)->SubmitBatchText("histogram eps=0.25\n");
    ASSERT_TRUE(good.ok()) << good.status().ToString();
    EXPECT_TRUE((*good)[0].status.ok());
    EXPECT_TRUE((*client)->Bye().ok());
  }

  (*server)->Stop();
  EXPECT_GE((*server)->stats().protocol_errors, 2u);
}

TEST(NetE2eTest, OversizedResponsePayloadBecomesAStructuredError) {
  // A histogram over a 60k-value domain serves fine in-process but
  // cannot fit one RESULT frame (~1.1 MB of shortest round-trip
  // (std::to_chars) values vs the 1 MiB
  // cap). The wire must degrade to a structured per-query error with
  // the receipt intact — never a daemon assert or a poisoned client
  // connection.
  EngineHostOptions options;
  options.num_threads = 1;
  options.root_seed = kSeed;
  auto domain = LineDomain(60000);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host(options);
  ASSERT_TRUE(
      host.AddTenant(kPolicyId, "big", policy, MakeData(domain, 100, 9))
          .ok());
  auto server = BlowfishServer::Start(&host);
  ASSERT_TRUE(server.ok());
  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, "big");
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  auto responses = (*client)->SubmitBatchText("histogram eps=0.5\n");
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  ASSERT_EQ(responses->size(), 1u);
  EXPECT_EQ((*responses)[0].status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE((*responses)[0].status.message().find("frame cap"),
            std::string::npos);
  EXPECT_TRUE((*responses)[0].values.empty());
  // The release happened and the budget WAS charged; the receipt says
  // so even though the payload could not be delivered.
  EXPECT_EQ((*responses)[0].receipt.charged, 0.5);
  auto engine = host.engine(kPolicyId, "big");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ((*engine)->accountant().Spent(""), 0.5);

  // Oversized request lines fail fast client-side...
  const std::string giant =
      "histogram eps=0.5 label=" + std::string(kMaxRequestLine, 'x') +
      "\n";
  EXPECT_EQ((*client)->SubmitBatchText(giant).status().code(),
            StatusCode::kInvalidArgument);
  // ...and are refused server-side for a client that skips the check,
  // with the connection left usable.
  {
    auto sock = Socket::ConnectTcp("127.0.0.1", (*server)->port());
    ASSERT_TRUE(sock.ok());
    auto send_payload = [&](const std::string& payload) {
      const std::string frame = EncodeFrame(payload);
      ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
    };
    FrameDecoder decoder;
    char buf[4096];
    auto read_payload = [&]() {
      std::string payload;
      while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
        auto n = sock->Recv(buf, sizeof(buf));
        EXPECT_TRUE(n.ok());
        if (!n.ok() || *n == 0) return std::string();
        decoder.Feed(buf, *n);
      }
      return payload;
    };
    send_payload(EncodeHelloPayload(kPolicyId, "big"));
    EXPECT_NE(read_payload().find(kVerbOk), std::string::npos);
    send_payload(EncodeSubmitPayload(1));
    send_payload(EncodeReqPayload("histogram eps=0.5 label=" +
                                  std::string(kMaxRequestLine + 1, 'x')));
    const std::string err = read_payload();
    auto msg = ParseWireMessage(err);
    ASSERT_TRUE(msg.ok());
    EXPECT_EQ(msg->verb, std::string(kVerbErr));
    Status refused;
    ASSERT_TRUE(ParseStatusFields(*msg, &refused).ok());
    EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  }
  EXPECT_TRUE((*client)->Bye().ok());
}

TEST(NetE2eTest, StopMidBatchStillDeliversTheBatch) {
  // Drain-on-SIGTERM semantics: Stop() must let a batch in flight
  // finish and flush — the client still sees RESULTs through DONE.
  auto host = MakeHost(2);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto client = BlowfishClient::Connect("127.0.0.1", (*server)->port(),
                                        kPolicyId, kTenantA);
  ASSERT_TRUE(client.ok());

  std::thread stopper;
  std::atomic<bool> stop_started{false};
  auto responses = (*client)->SubmitBatchText(
      kBatchText, [&](size_t, const QueryResponse&) {
        if (stop_started.exchange(true)) return;
        stopper = std::thread([&]() { (*server)->Stop(); });
      });
  ASSERT_TRUE(responses.ok()) << responses.status().ToString();
  EXPECT_EQ(responses->size(), 4u);
  for (const QueryResponse& response : *responses) {
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
  if (stopper.joinable()) stopper.join();
}

TEST(NetE2eTest, ErrorFramesStayBoundedForHugeClientTokens) {
  // EncodeErrorPayload caps echoed client text: a message that would
  // escape to 3x the frame cap must still produce an encodable frame
  // (RESULT frames were bounded from day one; ERR frames echo just as
  // much attacker-controlled text).
  const std::string giant(2 * kMaxFramePayload, '%');
  const std::string payload =
      EncodeErrorPayload(Status::InvalidArgument(giant));
  EXPECT_LE(payload.size(), kMaxFramePayload);
  EncodeFrame(payload);  // must not hit the oversize assert
  auto msg = ParseWireMessage(payload);
  ASSERT_TRUE(msg.ok());
  Status decoded;
  ASSERT_TRUE(ParseStatusFields(*msg, &decoded).ok());
  EXPECT_EQ(decoded.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(decoded.message().find("truncated"), std::string::npos);

  // End to end: a ~700 KiB garbage verb of '%' fits the inbound frame
  // cap, but "expected HELLO, got <verb>" escapes to ~2.1 MiB. The
  // server must answer with a bounded ERR frame — not abort in
  // EncodeFrame or emit an oversized frame that poisons the client
  // decoder.
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto sock = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sock.ok());
  const std::string bad = EncodeFrame(std::string(700 << 10, '%'));
  ASSERT_TRUE(sock->SendAll(bad.data(), bad.size()).ok());
  FrameDecoder decoder;
  char buf[4096];
  std::string err;
  while (decoder.Next(&err) != FrameDecoder::Result::kFrame) {
    ASSERT_TRUE(decoder.error().ok()) << decoder.error().ToString();
    auto n = sock->Recv(buf, sizeof(buf));
    ASSERT_TRUE(n.ok());
    ASSERT_GT(*n, 0u);
    decoder.Feed(buf, *n);
  }
  auto wire = ParseWireMessage(err);
  ASSERT_TRUE(wire.ok());
  EXPECT_EQ(wire->verb, std::string(kVerbErr));
  Status status;
  ASSERT_TRUE(ParseStatusFields(*wire, &status).ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("expected HELLO"), std::string::npos);
  EXPECT_NE(status.message().find("truncated"), std::string::npos);
}

TEST(NetE2eTest, BatchTotalBytesAreCapped) {
  // Per-line (64 KiB) and per-batch (65536 lines) caps compose to
  // ~4.3 GiB; the server must refuse a batch past the cumulative byte
  // cap instead of buffering it all, and the connection stays usable.
  auto host = MakeHost(1);
  auto server = BlowfishServer::Start(host.get());
  ASSERT_TRUE(server.ok());
  auto sock = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sock.ok());
  auto send_payload = [&](const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  };
  FrameDecoder decoder;
  char buf[4096];
  auto read_payload = [&]() {
    std::string payload;
    while (decoder.Next(&payload) != FrameDecoder::Result::kFrame) {
      auto n = sock->Recv(buf, sizeof(buf));
      EXPECT_TRUE(n.ok());
      if (!n.ok() || *n == 0) return std::string();
      decoder.Feed(buf, *n);
    }
    return payload;
  };
  send_payload(EncodeHelloPayload(kPolicyId, kTenantA));
  EXPECT_NE(read_payload().find(kVerbOk), std::string::npos);
  // 200 lines at exactly the per-line cap (each passes the line
  // check) total ~12.8 MiB — past the 8 MiB batch cap.
  send_payload(EncodeSubmitPayload(200));
  const std::string line(kMaxRequestLine, 'x');
  for (int i = 0; i < 200; ++i) send_payload(EncodeReqPayload(line));
  auto msg = ParseWireMessage(read_payload());
  ASSERT_TRUE(msg.ok());
  EXPECT_EQ(msg->verb, std::string(kVerbErr));
  Status refused;
  ASSERT_TRUE(ParseStatusFields(*msg, &refused).ok());
  EXPECT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("batch text"), std::string::npos);
  // The connection survives the refusal.
  send_payload(EncodeSubmitPayload(1));
  send_payload(EncodeReqPayload("histogram eps=0.25"));
  bool saw_done = false;
  for (int i = 0; i < 8 && !saw_done; ++i) {
    auto reply = ParseWireMessage(read_payload());
    ASSERT_TRUE(reply.ok());
    ASSERT_NE(reply->verb, std::string(kVerbErr));
    saw_done = reply->verb == kVerbDone;
  }
  EXPECT_TRUE(saw_done);
}

TEST(NetE2eTest, StopCompletesAgainstAClientThatStoppedReading) {
  // The reviewer scenario for the drain path: a client pipelines
  // batches with large responses and never reads a byte. The server's
  // writes stall on the full TCP buffer; the per-send timeout marks
  // the connection dead, and Stop()'s ShutdownBoth escalation covers
  // a writer still blocked (SHUT_RD alone never wakes a send()). The
  // assertion is simply that Stop() returns.
  EngineHostOptions options;
  options.num_threads = 1;
  options.root_seed = kSeed;
  auto domain = LineDomain(20000);
  Policy policy = Policy::FullDomain(domain).value();
  EngineHost host(options);
  ASSERT_TRUE(
      host.AddTenant(kPolicyId, "big", policy, MakeData(domain, 50, 11))
          .ok());
  ServerOptions sopts;
  sopts.send_timeout_ms = 100;
  sopts.drain_grace_ms = 100;
  auto server = BlowfishServer::Start(&host, sopts);
  ASSERT_TRUE(server.ok());

  auto sock = Socket::ConnectTcp("127.0.0.1", (*server)->port());
  ASSERT_TRUE(sock.ok());
  auto send_payload = [&](const std::string& payload) {
    const std::string frame = EncodeFrame(payload);
    ASSERT_TRUE(sock->SendAll(frame.data(), frame.size()).ok());
  };
  send_payload(EncodeHelloPayload(kPolicyId, "big"));
  char buf[256];
  auto n = sock->Recv(buf, sizeof(buf));  // the OK frame
  ASSERT_TRUE(n.ok());
  // Each batch's RESULT frame is ~400 KiB of shortest round-trip
  // (std::to_chars) values; 64 of them
  // overflow any plausible socket buffering, so the handler wedges in
  // send() partway through.
  for (int i = 0; i < 64; ++i) {
    send_payload(EncodeSubmitPayload(1));
    send_payload(EncodeReqPayload("histogram eps=0.01"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  (*server)->Stop();
}

}  // namespace
}  // namespace blowfish
