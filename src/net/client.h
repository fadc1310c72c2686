// Client library for the blowfish wire protocol.
//
// BlowfishClient speaks net/protocol.h to a blowfish_serverd (or an
// in-process BlowfishServer): Connect() performs the HELLO handshake
// for one tenant, SubmitBatchText() ships a batch in the exact
// batch-file text format of engine/batch_request.h and assembles the
// streamed RESULT / RECEIPT frames back into the same
// std::vector<QueryResponse> an in-process EngineHost::SubmitBatch
// future would deliver — field for field, bit for bit (doubles cross
// the wire as shortest round-trip text, std::to_chars).
// tests/net_e2e_test.cc holds the equivalence proof.
//
// The client is blocking and single-threaded by design: one client per
// connection per thread. Concurrency comes from running many clients
// (the soak test drives eight at once), not from sharing one.
//
// Pipelining: SubmitPipelined() ships a batch tagged with a unique
// batch= key and returns a handle WITHOUT reading a reply; AwaitBatch()
// later demultiplexes the interleaved RESULT / RECEIPT / DONE frames
// of every in-flight batch by their echoed tags and returns when the
// awaited batch completes. Many batches can be in flight on one
// connection; the reactor server executes them concurrently and
// interleaves their reply frames freely. SubmitBatchText() is
// submit-then-await with NO tag — its wire bytes are identical to the
// pre-pipelining client's, and it interoperates with servers that do
// not echo tags (any frame with no tag routes to the sole pending
// batch).

#ifndef BLOWFISH_NET_CLIENT_H_
#define BLOWFISH_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "server/engine_host.h"
#include "util/socket.h"
#include "util/status.h"

namespace blowfish {

struct WireMessage;  // net/protocol.h

/// One sample from a STATS reply. Names follow the metrics registry's
/// convention (obs/metrics.h): any label block rides inside the name,
/// e.g. "engine_query_latency_us_p99{kind=histogram}".
struct MetricSample {
  std::string name;
  double value = 0.0;
};

class BlowfishClient {
 public:
  /// Streamed per-query delivery, invoked in wire arrival order — the
  /// server's completion order. The response carries the final payload
  /// but a pre-settlement receipt; the returned vector has the final
  /// receipts.
  using ResultCallback =
      std::function<void(size_t index, const QueryResponse& response)>;

  /// Connects to `address`:`port` and completes the HELLO handshake
  /// for the tenant (policy_id, dataset_id). A server-side refusal
  /// (unknown tenant, version mismatch) comes back as the server's
  /// structured Status.
  static StatusOr<std::unique_ptr<BlowfishClient>> Connect(
      const std::string& address, uint16_t port,
      const std::string& policy_id, const std::string& dataset_id);

  /// Submits one batch in the batch-file text format and blocks until
  /// DONE. Returns the batch's responses indexed by request position —
  /// the same vector the in-process future would carry. A batch-level
  /// failure (parse error, tenant construction error) is the returned
  /// Status; per-query failures ride inside their QueryResponse like
  /// everywhere else.
  StatusOr<std::vector<QueryResponse>> SubmitBatchText(
      const std::string& text, const ResultCallback& on_result = nullptr);

  /// Ships one batch tagged `batch=b<handle>` and returns immediately —
  /// no reply frame is read. Claim the responses later with
  /// AwaitBatch(). Any number of batches may be in flight; the server
  /// runs them concurrently (subject to its engine pool) and the tag
  /// echo keeps their interleaved frames attributable.
  StatusOr<uint64_t> SubmitPipelined(const std::string& text);

  /// Blocks until the given in-flight batch completes, reading and
  /// demultiplexing frames for EVERY in-flight batch along the way
  /// (results for the others are buffered into their pending state and
  /// delivered by their own AwaitBatch calls). Returns the batch's
  /// responses with final receipts, exactly like SubmitBatchText; a
  /// batch-scoped ERR comes back as that batch's Status with the
  /// connection still usable. `on_result` fires in wire arrival order;
  /// results that arrived while awaiting a different batch are
  /// replayed, in their original arrival order, before any reads.
  StatusOr<std::vector<QueryResponse>> AwaitBatch(
      uint64_t handle, const ResultCallback& on_result = nullptr);

  /// Requests the daemon's metrics snapshot on this connection (STATS
  /// verb). Samples arrive in the server's sorted order; values are
  /// bit-exact doubles. Usable between batches at any point.
  StatusOr<std::vector<MetricSample>> FetchStats();

  /// One-shot STATS without a tenant: connects, fetches, disconnects.
  /// STATS is accepted before HELLO (daemon-wide, not tenant-scoped),
  /// so no policy/dataset ids are needed — this is what
  /// `blowfish_cli stats` uses.
  static StatusOr<std::vector<MetricSample>> FetchStats(
      const std::string& address, uint16_t port);

  /// Requests the daemon's liveness surface (HEALTH verb): ready /
  /// draining flags, uptime, active connections, and per-tenant
  /// remaining-budget gauges. Same sample shape as FetchStats.
  StatusOr<std::vector<MetricSample>> FetchHealth();

  /// One-shot HEALTH without a tenant (accepted pre-HELLO, like
  /// STATS) — what `blowfish_cli health` and the CI smoke use.
  static StatusOr<std::vector<MetricSample>> FetchHealth(
      const std::string& address, uint16_t port);

  /// Turns on wire-propagated tracing for this client. Every later
  /// batch is stamped with one connection-wide 64-bit trace id and a
  /// fresh per-batch span id, both minted from deterministic
  /// Random::Fork streams of `seed` (stream 0 = trace id, stream k =
  /// batch k's span id) — two runs with the same seed mint the same
  /// ids, so traces diff cleanly across runs. The ids ride as trace= /
  /// span= keys on SUBMIT; the server threads them through its own
  /// spans and audit lines and echoes them on RESULT / RECEIPT / DONE
  /// (the echo is verified when present; an older server that omits it
  /// still interoperates). The client writes its own spans
  /// (client_send, client_decode, client_assemble) to `tracer`, tagged
  /// with the same ids, so the two JSONL files concatenate into one
  /// causal tree. nullptr = the process-wide writer. Tracing is OFF
  /// until this is called: an untraced client sends byte-identical
  /// frames to a pre-tracing one.
  void EnableTracing(obs::TraceWriter* tracer, uint64_t seed);

  /// Clean shutdown: BYE, wait for the server's OK. Further submits
  /// fail.
  Status Bye();

  /// Hard-drops the connection without BYE — the "client died
  /// mid-batch" path the failure-injection tests drive.
  void Abort();

 private:
  /// One batch in flight: its identity on the wire (tag, trace
  /// context), its assembly state, and the arrival-order log that lets
  /// a later AwaitBatch replay on_result faithfully.
  struct PendingBatch {
    std::string tag;  // "" for an untagged (SubmitBatchText) batch
    size_t num_lines = 0;
    obs::TraceContext ctx;
    std::vector<QueryResponse> responses;
    std::vector<bool> seen;
    /// Indices in wire arrival order, for replaying on_result.
    std::vector<size_t> arrival_order;
    bool done = false;
    /// Batch-scoped ERR: the batch failed, the connection lives on.
    Status failed;
  };

  explicit BlowfishClient(Socket sock) : sock_(std::move(sock)) {}

  /// Splits, validates, and ships SUBMIT + REQ frames (tagged when
  /// `tagged`), registers the pending batch, returns its handle.
  StatusOr<uint64_t> SubmitInternal(const std::string& text, bool tagged);

  /// Maps a reply frame's (possibly absent) batch tag to the pending
  /// batch it belongs to. An untagged frame routes to the sole
  /// untagged pending batch, or — for servers that do not echo tags —
  /// to the sole pending batch of any kind.
  StatusOr<PendingBatch*> ResolveBatch(const std::string& tag);

  /// Applies one RESULT/RECEIPT/DONE/ERR frame to its batch (all the
  /// index/duplicate/count checks); fires `on_result` when set (the
  /// batch being awaited).
  Status ApplyToBatch(const WireMessage& msg, PendingBatch* batch,
                      const ResultCallback& on_result);

  Status WritePayload(const std::string& payload);
  /// Reads the next frame payload; EOF and decode errors are errors
  /// here (the protocol always tells the client what comes next).
  StatusOr<std::string> ReadPayload();

  /// Shared METRIC/DONE assembly loop behind FetchStats and
  /// FetchHealth: writes `request_payload`, collects METRIC frames
  /// until a count-checked DONE. `what` names the verb in error text.
  StatusOr<std::vector<MetricSample>> FetchSamples(
      const std::string& request_payload, const char* what);

  /// Checks a server frame's echoed trace context against what this
  /// batch sent: absent is fine (older server), mismatched is not.
  Status CheckTraceEcho(const WireMessage& msg,
                        const obs::TraceContext& sent) const;

  Socket sock_;
  FrameDecoder decoder_;
  /// Batches submitted but not yet claimed by an AwaitBatch, keyed by
  /// handle. std::map: iteration order is deterministic and the sole-
  /// pending fallback in ResolveBatch needs begin() to be stable.
  std::map<uint64_t, PendingBatch> pending_;
  uint64_t next_handle_ = 1;
  /// Tracing state; tracer_ == nullptr until EnableTracing.
  obs::TraceWriter* tracer_ = nullptr;
  uint64_t trace_seed_ = 0;
  uint64_t trace_id_ = 0;
  /// Count of traced batches sent; batch k's span id comes from
  /// Fork(k + 1) (stream 0 is the trace id's).
  uint64_t batch_index_ = 0;
};

}  // namespace blowfish

#endif  // BLOWFISH_NET_CLIENT_H_
