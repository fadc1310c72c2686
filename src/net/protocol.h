// The blowfish wire protocol: line-oriented messages inside the
// length-prefixed frames of net/frame.h.
//
// A message payload is `VERB key=value key=value ...` with values
// percent-escaped (space, control bytes, '%', and non-ASCII). One
// session looks like:
//
//   client                                server
//   ------------------------------------  -----------------------------
//   HELLO v=1 policy=<id> dataset=<id>
//                                         OK proto=1
//   SUBMIT n=2
//   REQ line=histogram%20eps=0.5
//   REQ line=mean%20eps=0.25
//                                         RESULT i=1 code=OK ...  (as it
//                                         RESULT i=0 code=OK ...  finishes)
//                                         RECEIPT i=0 ...   (final receipt
//                                         RECEIPT i=1 ...    state)
//                                         DONE n=2
//   BYE
//                                         OK proto=1  (then close)
//
// RESULT frames stream per query in completion order, driven by the
// engine's QueryCompletionCallback — a client waiting on one cheap
// histogram is not stalled behind a slow k-means in the same batch. The
// payload in a RESULT is already final; only the budget receipt can
// change after it fires (end-of-batch refunds/settlement), which is
// what the RECEIPT frames deliver before DONE. A batch that fails
// before reaching the engine (unknown tenant, lazy-construction error,
// batch parse error) gets one ERR frame instead of RESULT/DONE; the
// connection stays usable. Protocol violations also get an ERR frame,
// after which the server closes.
//
// Status values cross the wire as their stable code names
// (util/status.h, StatusCodeToString / StatusCodeFromString) plus the
// escaped message, so a client-side Status is code-for-code identical
// to the server-side one. Doubles cross as their shortest round-trip
// text (std::to_chars), which reads back to the same IEEE bits — the
// e2e suite asserts byte-identical payloads against in-process serving.
// Numbers are written into the payload and read back out of it in
// place; they never need escaping.
//
// Evolution contract — unknown keys: ParseWireMessage keeps EVERY
// well-formed `key=value` token (WireMessage::Find returns the last
// occurrence), and the typed parsers above it look up only the keys
// they know. An unrecognized key on a known verb is therefore carried,
// ignored, and never an error — which is how optional keys (trace=,
// span=, budget=) roll out with no flag day: an old peer drops them on
// the floor, a new peer reads them. Only *malformed* tokens (no '=',
// empty key, bad escape) and malformed values for KNOWN keys are
// protocol errors. tests/net_e2e_test.cc pins this down on both the
// parser and a live server.
//
// Evolution contract — numbers: a double field is read with
// std::from_chars and must fill its whole token, so a peer that still
// writes 17-significant-digit printf text is read bit-exactly, and an
// old peer's strtod reads the shortest text. Parsing only ever gets
// stricter: leading whitespace, '+', hex floats and literals that
// overflow a double were never written by an encoder and are refused
// (InvalidArgument).
//
// This header is the only place the wire layer touches engine types,
// and it reaches them exclusively through server/engine_host.h (CI
// greps that src/net/ includes no engine/core/mech/data header
// directly).

#ifndef BLOWFISH_NET_PROTOCOL_H_
#define BLOWFISH_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_context.h"
#include "server/engine_host.h"
#include "util/status.h"

namespace blowfish {

constexpr uint32_t kProtocolVersion = 1;

/// Hard cap on one REQ line, enforced by both ends (the client fails
/// fast, the server refuses the batch with a structured error). Far
/// above any real query, and it keeps every *non-payload* field of the
/// response frames — labels, session names, error messages all echo
/// request text — comfortably under the frame cap even after %XX
/// escaping (worst case 3x).
constexpr size_t kMaxRequestLine = size_t{64} << 10;  // 64 KiB

/// Cap on the optional `batch=` tag a pipelining client puts on SUBMIT
/// (raw bytes, before escaping). The tag is an opaque client-chosen
/// demultiplexing key echoed on every frame of the batch; it rides in
/// frame headers that must stay small, so it is bounded tightly.
constexpr size_t kMaxBatchTagBytes = 64;

/// Cap on the message text of an ERR frame. Error messages echo
/// client-controlled bytes (bad verbs, tenant ids, malformed tokens)
/// that are bounded only by the 1 MiB frame cap on the way IN — and
/// %XX escaping can expand them 3x on the way back OUT, past the frame
/// cap. EncodeErrorPayload truncates to this cap so an ERR frame
/// always encodes (a client can never drive the daemon into the
/// EncodeFrame oversize assert with a giant malformed message).
constexpr size_t kMaxErrorMessageBytes = 512;

// Verbs (message payloads start with one of these).
inline constexpr char kVerbHello[] = "HELLO";
inline constexpr char kVerbOk[] = "OK";
inline constexpr char kVerbErr[] = "ERR";
inline constexpr char kVerbSubmit[] = "SUBMIT";
inline constexpr char kVerbReq[] = "REQ";
inline constexpr char kVerbResult[] = "RESULT";
inline constexpr char kVerbReceipt[] = "RECEIPT";
inline constexpr char kVerbDone[] = "DONE";
inline constexpr char kVerbBye[] = "BYE";
/// STATS — request the daemon's metrics snapshot. Accepted before or
/// after HELLO (the metrics are daemon-wide, not tenant-scoped); the
/// server answers one METRIC frame per sample, then DONE n=<count>.
inline constexpr char kVerbStats[] = "STATS";
inline constexpr char kVerbMetric[] = "METRIC";
/// HEALTH — liveness probe. Accepted before or after HELLO, like
/// STATS; the server answers METRIC frames (ready/draining flags,
/// uptime, active connections, per-tenant remaining budget), then
/// DONE n=<count>.
inline constexpr char kVerbHealth[] = "HEALTH";

/// Percent-escapes a raw field value: '%', space, control bytes, and
/// non-ASCII become %XX. '=' is allowed unescaped in values: parsers
/// split each token on its FIRST '=' (keys never contain one), so any
/// later '=' is value bytes. The result contains only printable ASCII
/// with no spaces, so messages tokenize on single spaces.
std::string EscapeWireField(const std::string& raw);

/// Strict inverse of EscapeWireField ('%' must begin a valid %XX).
StatusOr<std::string> UnescapeWireField(const std::string& escaped);

/// A parsed message: verb plus key/value pairs (values unescaped).
struct WireMessage {
  std::string verb;
  std::vector<std::pair<std::string, std::string>> args;

  /// Last value for `key`, or nullptr.
  const std::string* Find(const std::string& key) const;
};

/// Tokenizes and unescapes one frame payload. Rejects empty payloads,
/// empty tokens (doubled spaces), and key-less tokens.
StatusOr<WireMessage> ParseWireMessage(const std::string& payload);

/// Builds message payloads; values are escaped on Add.
class WireMessageBuilder {
 public:
  explicit WireMessageBuilder(const std::string& verb) : payload_(verb) {}

  WireMessageBuilder& Add(const std::string& key, const std::string& value);
  WireMessageBuilder& AddUint(const std::string& key, uint64_t value);
  /// Shortest round-trip text (std::to_chars) — bit-exact.
  WireMessageBuilder& AddDouble(const std::string& key, double value);
  /// Comma-separated AddDouble texts; an empty list is an empty value.
  WireMessageBuilder& AddDoubleList(const std::string& key,
                                    const std::vector<double>& values);
  WireMessageBuilder& AddBool(const std::string& key, bool value);

  const std::string& payload() const { return payload_; }

 private:
  void Key(const std::string& key);  // appends " key="

  std::string payload_;
};

// ---- Typed field access (errors name the verb and key) ---------------------

StatusOr<std::string> GetField(const WireMessage& msg,
                               const std::string& key);
StatusOr<uint64_t> GetUintField(const WireMessage& msg,
                                const std::string& key);
StatusOr<double> GetDoubleField(const WireMessage& msg,
                                const std::string& key);
StatusOr<bool> GetBoolField(const WireMessage& msg, const std::string& key);

// ---- Message constructors / parsers ----------------------------------------

/// HELLO v=<version> policy=<id> dataset=<id>
std::string EncodeHelloPayload(const std::string& policy_id,
                               const std::string& dataset_id);

/// OK proto=<version>
std::string EncodeOkPayload();

/// ERR code=<CODE_NAME> msg=<escaped> [batch=<tag>] — a structured
/// Status on the wire. Messages past kMaxErrorMessageBytes are
/// truncated (with a marker naming the original length), so the
/// payload always fits one frame no matter how much client text the
/// status echoes. `batch_tag`, when non-empty, scopes the error to one
/// pipelined batch (that batch failed; the connection stays usable) —
/// an untagged ERR is connection-level.
std::string EncodeErrorPayload(const Status& status,
                               const std::string& batch_tag = "");

/// Reconstructs the Status carried by an ERR message (or by the
/// code/msg pair of a RESULT) into *out. code=OK yields Status::OK().
/// The return value reports parse problems (unknown code name, missing
/// keys) — distinct from the carried status itself.
Status ParseStatusFields(const WireMessage& msg, Status* out);

/// SUBMIT n=<request line count> [trace=<id> span=<id>] [batch=<tag>]
/// — the trace keys appear iff `trace` is valid (client tracing
/// enabled); the batch tag iff `batch_tag` is non-empty (pipelining
/// client). Both are optional keys under the evolution contract: an
/// old server carries and ignores them.
std::string EncodeSubmitPayload(size_t num_lines,
                                const obs::TraceContext& trace =
                                    obs::TraceContext(),
                                const std::string& batch_tag = "");

// ---- Trace context (optional keys, see the evolution contract) -------------

/// Appends ` trace=<id> span=<id>` to an encoded payload when `trace`
/// is valid; no-op otherwise. Ids are decimal uint64 — no escaping
/// needed.
void AppendTraceContext(std::string* payload, const obs::TraceContext& trace);

/// Extracts the optional trace=/span= keys from any message. Absent
/// keys yield an invalid (zeroed) context — not an error; present but
/// malformed values ARE an error (known keys parse strictly).
StatusOr<obs::TraceContext> ParseTraceContext(const WireMessage& msg);

// ---- Batch tag (optional key, see the evolution contract) ------------------

/// Appends ` batch=<escaped tag>` to an encoded payload when `tag` is
/// non-empty; no-op otherwise. The server echoes a SUBMIT's tag on
/// every RESULT/RECEIPT/DONE (and batch-scoped ERR) of that batch so a
/// client multiplexing pipelined batches on one connection can demux
/// the interleaved reply frames. One-batch-at-a-time clients never
/// send the key and never see it echoed.
void AppendBatchTag(std::string* payload, const std::string& tag);

/// Extracts the optional batch= key from any message. Absent (or
/// explicitly empty) yields "" — not an error; a tag past
/// kMaxBatchTagBytes IS an error (known keys parse strictly).
StatusOr<std::string> ParseBatchTag(const WireMessage& msg);

/// REQ line=<escaped batch-file line>
std::string EncodeReqPayload(const std::string& line);

/// DONE n=<response count>
std::string EncodeDonePayload(size_t num_responses);

/// RESULT i=<index> code= msg= label= sens= hit= values= <receipt...>
std::string EncodeResultPayload(size_t index, const QueryResponse& response);

/// EncodeResultPayload, bounded by the frame cap: a response whose
/// values do not fit in one frame (a histogram over a ~45k+ value
/// domain) is replaced by a RESULT with the same index, label, and
/// receipt but a ResourceExhausted status and no values — the client
/// gets a structured per-query error instead of a poisoned connection
/// (or, in Debug builds, an EncodeFrame assert in the daemon). A valid
/// `trace` — and a non-empty `batch_tag` — is echoed on the frame,
/// appended before the bound check, so the echo can never push a
/// payload past the cap.
std::string EncodeBoundedResultPayload(size_t index,
                                       const QueryResponse& response,
                                       const obs::TraceContext& trace =
                                           obs::TraceContext(),
                                       const std::string& batch_tag = "");

/// RECEIPT i=<index> <receipt...> — the final receipt state after the
/// batch future resolved (refunds applied, charges settled).
std::string EncodeReceiptPayload(size_t index,
                                 const QueryResponse& response);

/// Parses a RESULT message into (index, response). The values list is
/// read where it sits in `msg`.
StatusOr<std::pair<size_t, QueryResponse>> ParseResultPayload(
    const WireMessage& msg);

/// Parses a RECEIPT message; overwrites *receipt with the final state.
Status ParseReceiptPayload(const WireMessage& msg, size_t* index,
                           BudgetReceipt* receipt);

/// STATS — no fields.
std::string EncodeStatsPayload();

/// HEALTH — no fields.
std::string EncodeHealthPayload();

/// METRIC name=<escaped> value=<shortest round-trip double> — one
/// metrics sample. Sample names reuse the registry's convention
/// (obs/metrics.h), label block and all; the value crosses bit-exactly
/// like every other double.
std::string EncodeMetricPayload(const std::string& name, double value);

/// Parses a METRIC message into (name, value).
StatusOr<std::pair<std::string, double>> ParseMetricPayload(
    const WireMessage& msg);

}  // namespace blowfish

#endif  // BLOWFISH_NET_PROTOCOL_H_
