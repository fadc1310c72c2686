// The layer ladder of the traced run. Each rung calls one public entry
// point on the same batch, one span per call under a per-batch root, so
// a layer's self time is the difference between adjacent rungs:
//
//   1. wire, depth 1        SubmitPipelined + AwaitBatch, nothing else
//                           in flight
//   2. host                 EngineHost::ServeBatch
//   3. engine               ReleaseEngine::ServeBatch via EngineHost::engine()
//   4. mechanism            QueryOp::Execute per query, resolved
//                           sensitivity, then the query alone through
//                           ReleaseEngine::ServeBatch
//   5. codec                EncodeResultPayload + EncodeFrame, and
//                           FrameDecoder + ParseWireMessage +
//                           ParseResultPayload
//   6. randomness           Random::Fork(id), Random::LaplaceVector(|T|, b)
//
// Cold sensitivities (QueryOp::ComputeSensitivity, no cache), complete
// histograms, and engine builds are timed once per distinct input.

#include <map>
#include <numeric>

#include "bench.h"
#include "net/protocol.h"

namespace perfbench {
namespace {

using blowfish::Dataset;
using blowfish::EngineHost;
using blowfish::QueryRequest;
using blowfish::QueryResponse;
using blowfish::Random;
using blowfish::ReleaseEngine;

constexpr size_t kLadderBatches = 48;
constexpr size_t kForksPerSample = 4096;

/// Keeps timed results observable so the calls are not optimized away.
volatile uint64_t g_sink = 0;

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

struct Timer {
  Clock::time_point start = Clock::now();
  /// Ends the interval: records it as a span and returns it in us.
  double Stop(SpanRecorder* spans, uint64_t parent, const char* name) {
    const Clock::time_point end = Clock::now();
    spans->Record(0, parent, name, start, end);
    return UsBetween(start, end);
  }
};

}  // namespace

void RunLadder(const Workload& w, Deployment* d, uint64_t seed,
               SpanRecorder* spans, Results* results, Checks* checks) {
  const size_t n = w.tenants.size();
  std::vector<ReleaseEngine*> engines(n);
  std::vector<blowfish::Histogram> hists(n);
  std::vector<double> hist_ms;
  bool hist_exact = true;
  for (size_t t = 0; t < n; ++t) {
    const TenantSpec& spec = w.tenants[t];
    engines[t] =
        Must(d->host->engine(spec.policy_id, spec.dataset_id), "engine");
    Timer timer;
    hists[t] = Must(engines[t]->data().CompleteHistogram(), "histogram");
    hist_ms.push_back(timer.Stop(spans, 0, "complete_histogram") / 1e3);
    hist_exact = hist_exact && hists[t].counts() == spec.truth;
  }
  checks->Report("complete_histogram", hist_exact,
                 "Dataset::CompleteHistogram equals the generated counts");

  // Cold S(f, P) per distinct (policy, shape); what a cold cache pays.
  std::map<std::pair<size_t, std::string>, double> cold_value;
  std::map<std::string, std::vector<double>> cold_ms_by_kind;
  double cold_total_ms = 0.0;
  const uint64_t cold_root = spans->NewId();
  const Clock::time_point cold_start = Clock::now();
  for (size_t g = 0; g < n; ++g) {
    if (w.tenants[g].policy_group != g) continue;
    for (const QueryRequest& r :
         Must(EngineHost::ParseBatchText(w.warmup[g].text), "parse")) {
      const std::string shape = Must(r.op->SensitivityShape(), "shape");
      if (cold_value.count({g, shape}) != 0) continue;
      Timer timer;
      const double s =
          Must(r.op->ComputeSensitivity(engines[g]->policy(),
                                        blowfish::SensitivityEnv{}),
               "cold sensitivity");
      const double ms =
          timer.Stop(spans, cold_root, "compute_sensitivity_cold") / 1e3;
      cold_value[{g, shape}] = s;
      cold_ms_by_kind[r.op->KindName()].push_back(ms);
      cold_total_ms += ms;
    }
  }
  spans->Record(cold_root, 0, "cold_sensitivities", cold_start, Clock::now());

  Random rng(Random(seed).Fork(6));
  std::vector<double> wire_over, host_over, admission, encode_us, decode_us,
      fork_us, laplace_ns;
  std::map<std::string, std::vector<double>> exec_by_kind;
  std::vector<double> exec_all;
  bool sensitivities_match = true;
  bool codec_round_trip = true;
  for (size_t i = 0; i < kLadderBatches; ++i) {
    const BatchSpec b = w.next(w, rng, i % n);
    const TenantSpec& spec = w.tenants[b.tenant];
    const std::vector<QueryRequest> requests =
        Must(EngineHost::ParseBatchText(b.text), "parse");
    const uint64_t root = spans->NewId();
    const Clock::time_point root_start = Clock::now();
    Tally scratch;
    scratch.charged.assign(n, 0.0);

    Timer t1;
    auto& client = d->clients[b.tenant];
    auto wire =
        client->AwaitBatch(Must(client->SubmitPipelined(b.text), "submit"));
    const double r1 = t1.Stop(spans, root, "wire_depth1");
    Timer t2;
    auto hosted =
        d->host->ServeBatch(spec.policy_id, spec.dataset_id, requests);
    const double r2 = t2.Stop(spans, root, "host_serve_batch");
    Timer t3;
    const std::vector<QueryResponse> served =
        engines[b.tenant]->ServeBatch(requests);
    const double r3 = t3.Stop(spans, root, "engine_serve_batch");
    CheckBatch(w, b, wire, &scratch, checks);
    CheckBatch(w, b, hosted, &scratch, checks);
    CheckBatch(w, b, served, &scratch, checks);
    if (!wire.ok() || served.size() != requests.size()) continue;

    for (size_t q = 0; q < requests.size(); ++q) {
      const QueryRequest& r = requests[q];
      const size_t g = spec.policy_group;
      auto cold = cold_value.find({g, Must(r.op->SensitivityShape(), "shape")});
      sensitivities_match = sensitivities_match && cold != cold_value.end() &&
                            cold->second == served[q].sensitivity;
      const blowfish::QueryExecContext ctx{engines[b.tenant]->policy(),
                                           engines[b.tenant]->data(),
                                           hists[b.tenant], r.epsilon,
                                           served[q].sensitivity};
      Timer t4;
      auto out = r.op->Execute(ctx, Random(seed).Fork(q));
      const double us = t4.Stop(spans, root, "op_execute");
      if (!out.ok()) checks->Fail("ladder_execute", out.status().ToString());
      exec_all.push_back(us);
      exec_by_kind[r.op->KindName()].push_back(us);
      // The same query alone through the engine: nothing overlaps it, so
      // what it costs beyond its own Execute is the engine's per-query
      // admission, accounting and settlement.
      Timer ts;
      const std::vector<QueryResponse> alone =
          engines[b.tenant]->ServeBatch({r});
      admission.push_back(ts.Stop(spans, root, "engine_serve_single") - us);
      if (alone.size() != 1 || !alone[0].status.ok()) {
        checks->Fail("ladder_single",
                     r.op->KindName() + " served alone failed");
      }
    }
    wire_over.push_back(r1 - r2);
    host_over.push_back(r2 - r3);

    for (size_t q = 0; q < wire->size(); ++q) {
      const QueryResponse& r = (*wire)[q];
      Timer te;
      const std::string frame =
          blowfish::EncodeFrame(blowfish::EncodeResultPayload(q, r));
      encode_us.push_back(te.Stop(spans, root, "encode_result"));
      Timer td;
      blowfish::FrameDecoder decoder;
      decoder.Feed(frame.data(), frame.size());
      std::string payload;
      bool round_trip = false;
      if (decoder.Next(&payload) == blowfish::FrameDecoder::Result::kFrame) {
        auto msg = blowfish::ParseWireMessage(payload);
        if (msg.ok()) {
          auto parsed = blowfish::ParseResultPayload(*msg);
          decode_us.push_back(td.Stop(spans, root, "decode_result"));
          std::string why;
          round_trip = parsed.ok() && parsed->first == q &&
                       Identical({parsed->second}, {r}, &why);
        }
      }
      codec_round_trip = codec_round_trip && round_trip;
    }

    Timer tf;
    const Random base(spec.root_seed);
    uint64_t sink = 0;
    for (size_t k = 0; k < kForksPerSample; ++k) sink ^= base.Fork(k).seed();
    fork_us.push_back(tf.Stop(spans, root, "random_fork") /
                      static_cast<double>(kForksPerSample));
    const size_t cells = spec.policy.domain().size();
    Random draw(spec.root_seed);
    Timer tl;
    const std::vector<double> noise = draw.LaplaceVector(cells, 8.0);
    laplace_ns.push_back(tl.Stop(spans, root, "laplace_vector") * 1e3 /
                         static_cast<double>(cells));
    g_sink = sink + static_cast<uint64_t>(noise.size());
    spans->Record(root, 0, "ladder_batch", root_start, Clock::now());
  }
  checks->Report("cold_sensitivity", sensitivities_match,
                 "served sensitivities equal cold ComputeSensitivity");
  checks->Report("codec_round_trip", codec_round_trip,
                 "decoded RESULT frames equal the responses they encode");

  // Engine build per tenant on a fresh host: time and resident growth.
  std::vector<double> create_ms, rss_mb;
  for (const TenantSpec& spec : w.tenants) {
    blowfish::obs::MetricsRegistry metrics;
    blowfish::EngineHostOptions options;
    options.num_threads = 2;
    options.metrics = &metrics;
    EngineHost host(options);
    Must(host.AddTenant(spec.policy_id, spec.dataset_id, spec.policy,
                        Must(Dataset::Create(spec.policy.domain_ptr(),
                                             spec.tuples),
                             "dataset")),
         "add tenant");
    const double rss_before = ProcStatusMiB("VmRSS");
    Timer timer;
    Must(host.engine(spec.policy_id, spec.dataset_id), "engine build");
    create_ms.push_back(timer.Stop(spans, 0, "engine_create") / 1e3);
    rss_mb.push_back(ProcStatusMiB("VmRSS") - rss_before);
  }

  results->Add("net.encode_us_per_query", Mean(encode_us), "us");
  results->Add("net.decode_us_per_query", Mean(decode_us), "us");
  results->Add("net.wire_overhead_us_per_batch", Median(wire_over), "us");
  results->Add("server.host_overhead_us_per_batch", Median(host_over), "us");
  results->Add("engine.admission_us_per_query", Median(admission), "us");
  results->Add("engine.create_ms", Median(create_ms), "ms");
  results->Add("core.sensitivity_cold_ms", cold_total_ms, "ms");
  for (const auto& [kind, ms] : cold_ms_by_kind) {
    PrintMetric("core.sensitivity_cold_ms." + kind,
                std::accumulate(ms.begin(), ms.end(), 0.0), "ms");
  }
  results->Add("mech.execute_us_per_query", Mean(exec_all), "us");
  for (const auto& [kind, us] : exec_by_kind) {
    PrintMetric("mech.execute_us." + kind, Median(us), "us");
  }
  results->Add("util.fork_us", Median(fork_us), "us");
  results->Add("util.laplace_ns_per_draw", Median(laplace_ns), "ns");
  results->Add("data.histogram_ms", Median(hist_ms), "ms");
  results->Add("data.engine_rss_mb", Median(rss_mb), "MiB");
}

}  // namespace perfbench
