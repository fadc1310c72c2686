#include "net/protocol.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "net/frame.h"
#include "util/parse.h"

namespace blowfish {

namespace {

bool NeedsEscape(unsigned char c) {
  return c <= 0x20 || c >= 0x7f || c == '%';
}

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends the strict inverse of EscapeWireField over [first, last).
/// Unescaped runs are copied whole, so a field without '%' (every
/// number list) costs one append.
Status AppendUnescaped(const char* first, const char* last,
                       std::string* out) {
  while (first < last) {
    const char* pct = static_cast<const char*>(
        std::memchr(first, '%', static_cast<size_t>(last - first)));
    if (pct == nullptr) {
      out->append(first, last);
      break;
    }
    out->append(first, pct);
    if (last - pct < 3) {
      return Status::InvalidArgument("truncated %XX escape");
    }
    const int hi = HexDigit(pct[1]);
    const int lo = HexDigit(pct[2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed %XX escape");
    }
    out->push_back(static_cast<char>((hi << 4) | lo));
    first = pct + 3;
  }
  return Status::OK();
}

Status MissingKey(const WireMessage& msg, const std::string& key) {
  return Status::InvalidArgument("missing key '" + key + "' in " +
                                 msg.verb + " message");
}

Status MalformedNumber(const char* first, const char* last,
                       const std::string& context) {
  return Status::InvalidArgument("malformed number '" +
                                 std::string(first, last) + "' for " +
                                 context);
}

/// A double that must fill the whole field, read with std::from_chars:
/// leading whitespace, '+', hex floats and overflowing literals are not
/// numbers to it, and no encoder writes them. (util/parse.h's
/// ParseFiniteDouble is for human input and rejects inf — the wire must
/// round-trip whatever a mechanism produced.)
StatusOr<double> ParseWireDouble(const std::string& text,
                                 const std::string& context) {
  const char* first = text.data();
  const char* last = first + text.size();
  double value = 0.0;
  const std::from_chars_result r = std::from_chars(first, last, value);
  if (r.ec != std::errc() || r.ptr != last) {
    return MalformedNumber(first, last, context);
  }
  return value;
}

/// Parses the comma-separated `values=` list in place into *out, by the
/// rules of ParseWireDouble. An empty field is an empty list; an empty
/// element (`1,`, `,1`, `1,,2`) is malformed.
Status ParseWireDoubleList(const std::string& text,
                           std::vector<double>* out) {
  if (text.empty()) return Status::OK();
  out->reserve(static_cast<size_t>(
                   std::count(text.begin(), text.end(), ',')) + 1);
  const char* first = text.data();
  const char* const last = first + text.size();
  while (true) {
    double value = 0.0;
    const std::from_chars_result r = std::from_chars(first, last, value);
    if (r.ec != std::errc() || (r.ptr != last && *r.ptr != ',')) {
      const char* comma = static_cast<const char*>(
          std::memchr(first, ',', static_cast<size_t>(last - first)));
      return MalformedNumber(first, comma != nullptr ? comma : last,
                             "'values' in RESULT");
    }
    out->push_back(value);
    if (r.ptr == last) return Status::OK();
    first = r.ptr + 1;
  }
}

StatusOr<uint64_t> ParseWireUint(const std::string& text,
                                 const std::string& context) {
  // Require a leading digit: strtoull itself skips leading whitespace
  // and wraps negatives, so an escaped " -5" would otherwise smuggle
  // through as a huge uint64 instead of being rejected.
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    return Status::InvalidArgument("malformed integer '" + text +
                                   "' for " + context);
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    return Status::InvalidArgument("malformed integer '" + text +
                                   "' for " + context);
  }
  return static_cast<uint64_t>(value);
}

/// The receipt sub-record shared by RESULT and RECEIPT frames.
void AddReceiptFields(WireMessageBuilder& b, const BudgetReceipt& r) {
  b.Add("session", r.session)
      .Add("rlabel", r.label)
      .AddUint("charge_id", r.charge_id)
      .AddDouble("charged", r.charged)
      .AddDouble("eps", r.epsilon)
      .AddDouble("remaining", r.remaining)
      .AddDouble("budget", r.budget)
      .AddBool("parallel", r.parallel)
      .AddBool("refunded", r.refunded);
}

Status ParseReceiptFields(const WireMessage& msg, BudgetReceipt* r) {
  BLOWFISH_ASSIGN_OR_RETURN(r->session, GetField(msg, "session"));
  BLOWFISH_ASSIGN_OR_RETURN(r->label, GetField(msg, "rlabel"));
  BLOWFISH_ASSIGN_OR_RETURN(r->charge_id, GetUintField(msg, "charge_id"));
  BLOWFISH_ASSIGN_OR_RETURN(r->charged, GetDoubleField(msg, "charged"));
  BLOWFISH_ASSIGN_OR_RETURN(r->epsilon, GetDoubleField(msg, "eps"));
  BLOWFISH_ASSIGN_OR_RETURN(r->remaining, GetDoubleField(msg, "remaining"));
  // budget= arrived with the audit log; optional so receipts from an
  // older server still parse (left at the struct default, 0).
  if (msg.Find("budget") != nullptr) {
    BLOWFISH_ASSIGN_OR_RETURN(r->budget, GetDoubleField(msg, "budget"));
  }
  BLOWFISH_ASSIGN_OR_RETURN(r->parallel, GetBoolField(msg, "parallel"));
  BLOWFISH_ASSIGN_OR_RETURN(r->refunded, GetBoolField(msg, "refunded"));
  return Status::OK();
}

}  // namespace

std::string EscapeWireField(const std::string& raw) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (unsigned char c : raw) {
    if (NeedsEscape(c)) {
      out.push_back('%');
      out.push_back(kHex[c >> 4]);
      out.push_back(kHex[c & 0xf]);
    } else {
      out.push_back(static_cast<char>(c));
    }
  }
  return out;
}

StatusOr<std::string> UnescapeWireField(const std::string& escaped) {
  std::string out;
  BLOWFISH_RETURN_IF_ERROR(AppendUnescaped(
      escaped.data(), escaped.data() + escaped.size(), &out));
  return out;
}

const std::string* WireMessage::Find(const std::string& key) const {
  const std::string* found = nullptr;
  for (const auto& [k, v] : args) {
    if (k == key) found = &v;
  }
  return found;
}

StatusOr<WireMessage> ParseWireMessage(const std::string& payload) {
  WireMessage msg;
  size_t pos = 0;
  bool first = true;
  while (pos <= payload.size()) {
    size_t space = payload.find(' ', pos);
    if (space == std::string::npos) space = payload.size();
    if (space == pos) {
      return Status::InvalidArgument(
          "empty token in wire message (doubled or trailing space)");
    }
    if (first) {
      msg.verb = payload.substr(pos, space - pos);
      first = false;
    } else {
      // Key and value are read where they sit: the value is unescaped
      // straight out of the payload, the one copy a field costs.
      const size_t eq = payload.find('=', pos);
      if (eq >= space || eq == pos) {
        return Status::InvalidArgument("expected key=value, got '" +
                                       payload.substr(pos, space - pos) +
                                       "' in wire message");
      }
      std::string value;
      BLOWFISH_RETURN_IF_ERROR(AppendUnescaped(
          payload.data() + eq + 1, payload.data() + space, &value));
      msg.args.emplace_back(payload.substr(pos, eq - pos), std::move(value));
    }
    if (space == payload.size()) break;
    pos = space + 1;
    if (pos == payload.size()) {
      return Status::InvalidArgument(
          "empty token in wire message (doubled or trailing space)");
    }
  }
  if (msg.verb.empty()) {
    return Status::InvalidArgument("empty wire message");
  }
  return msg;
}

void WireMessageBuilder::Key(const std::string& key) {
  payload_.push_back(' ');
  payload_.append(key);
  payload_.push_back('=');
}

WireMessageBuilder& WireMessageBuilder::Add(const std::string& key,
                                            const std::string& value) {
  Key(key);
  payload_.append(EscapeWireField(value));
  return *this;
}

WireMessageBuilder& WireMessageBuilder::AddUint(const std::string& key,
                                                uint64_t value) {
  return Add(key, std::to_string(value));
}

// Doubles are written straight into the payload: digits, '.', '-',
// '+', 'e', ',', "inf" and "nan" never need escaping.

WireMessageBuilder& WireMessageBuilder::AddDouble(const std::string& key,
                                                  double value) {
  Key(key);
  AppendDouble(&payload_, value);
  return *this;
}

WireMessageBuilder& WireMessageBuilder::AddDoubleList(
    const std::string& key, const std::vector<double>& values) {
  Key(key);
  // 25 bytes bound one shortest double plus its comma; the slack keeps
  // the short fields that follow (a RESULT's receipt) from regrowing a
  // ~40 KB payload.
  payload_.reserve(payload_.size() + 25 * values.size() + 256);
  for (size_t v = 0; v < values.size(); ++v) {
    if (v > 0) payload_.push_back(',');
    AppendDouble(&payload_, values[v]);
  }
  return *this;
}

WireMessageBuilder& WireMessageBuilder::AddBool(const std::string& key,
                                                bool value) {
  return Add(key, value ? "1" : "0");
}

StatusOr<std::string> GetField(const WireMessage& msg,
                               const std::string& key) {
  const std::string* value = msg.Find(key);
  if (value == nullptr) return MissingKey(msg, key);
  return *value;
}

StatusOr<uint64_t> GetUintField(const WireMessage& msg,
                                const std::string& key) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string value, GetField(msg, key));
  return ParseWireUint(value, "'" + key + "' in " + msg.verb);
}

StatusOr<double> GetDoubleField(const WireMessage& msg,
                                const std::string& key) {
  const std::string* value = msg.Find(key);
  if (value == nullptr) return MissingKey(msg, key);
  return ParseWireDouble(*value, "'" + key + "' in " + msg.verb);
}

StatusOr<bool> GetBoolField(const WireMessage& msg,
                            const std::string& key) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string value, GetField(msg, key));
  if (value == "1") return true;
  if (value == "0") return false;
  return Status::InvalidArgument("malformed flag '" + value + "' for '" +
                                 key + "' in " + msg.verb);
}

std::string EncodeHelloPayload(const std::string& policy_id,
                               const std::string& dataset_id) {
  WireMessageBuilder b(kVerbHello);
  b.AddUint("v", kProtocolVersion)
      .Add("policy", policy_id)
      .Add("dataset", dataset_id);
  return b.payload();
}

std::string EncodeOkPayload() {
  WireMessageBuilder b(kVerbOk);
  b.AddUint("proto", kProtocolVersion);
  return b.payload();
}

std::string EncodeErrorPayload(const Status& status,
                               const std::string& batch_tag) {
  WireMessageBuilder b(kVerbErr);
  b.Add("code", StatusCodeToString(status.code()));
  // Error messages echo client-controlled text of up to a full frame,
  // and escaping expands up to 3x; truncate so the ERR frame itself
  // can never exceed the frame cap (see kMaxErrorMessageBytes).
  if (status.message().size() <= kMaxErrorMessageBytes) {
    b.Add("msg", status.message());
  } else {
    std::string truncated = status.message().substr(0, kMaxErrorMessageBytes);
    truncated += " ...[truncated from " +
                 std::to_string(status.message().size()) + " bytes]";
    b.Add("msg", truncated);
  }
  std::string payload = b.payload();
  AppendBatchTag(&payload, batch_tag);
  return payload;
}

Status ParseStatusFields(const WireMessage& msg, Status* out) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string name, GetField(msg, "code"));
  StatusCode code;
  if (!StatusCodeFromString(name, &code)) {
    return Status::InvalidArgument("unknown status code '" + name +
                                   "' in " + msg.verb + " message");
  }
  if (code == StatusCode::kOk) {
    *out = Status::OK();
    return Status::OK();
  }
  BLOWFISH_ASSIGN_OR_RETURN(std::string message, GetField(msg, "msg"));
  *out = Status(code, std::move(message));
  return Status::OK();
}

std::string EncodeSubmitPayload(size_t num_lines,
                                const obs::TraceContext& trace,
                                const std::string& batch_tag) {
  WireMessageBuilder b(kVerbSubmit);
  b.AddUint("n", num_lines);
  std::string payload = b.payload();
  AppendTraceContext(&payload, trace);
  AppendBatchTag(&payload, batch_tag);
  return payload;
}

void AppendTraceContext(std::string* payload,
                        const obs::TraceContext& trace) {
  if (!trace.valid()) return;
  payload->append(" trace=");
  payload->append(std::to_string(trace.trace_id));
  payload->append(" span=");
  payload->append(std::to_string(trace.span_id));
}

StatusOr<obs::TraceContext> ParseTraceContext(const WireMessage& msg) {
  obs::TraceContext trace;
  if (msg.Find("trace") != nullptr) {
    BLOWFISH_ASSIGN_OR_RETURN(trace.trace_id, GetUintField(msg, "trace"));
  }
  if (msg.Find("span") != nullptr) {
    BLOWFISH_ASSIGN_OR_RETURN(trace.span_id, GetUintField(msg, "span"));
  }
  return trace;
}

void AppendBatchTag(std::string* payload, const std::string& tag) {
  if (tag.empty()) return;
  payload->append(" batch=");
  payload->append(EscapeWireField(tag));
}

StatusOr<std::string> ParseBatchTag(const WireMessage& msg) {
  const std::string* tag = msg.Find("batch");
  if (tag == nullptr) return std::string();
  if (tag->size() > kMaxBatchTagBytes) {
    return Status::InvalidArgument(
        "batch tag exceeds the " + std::to_string(kMaxBatchTagBytes) +
        "-byte cap");
  }
  return *tag;
}

std::string EncodeReqPayload(const std::string& line) {
  WireMessageBuilder b(kVerbReq);
  b.Add("line", line);
  return b.payload();
}

std::string EncodeDonePayload(size_t num_responses) {
  WireMessageBuilder b(kVerbDone);
  b.AddUint("n", num_responses);
  return b.payload();
}

std::string EncodeResultPayload(size_t index,
                                const QueryResponse& response) {
  WireMessageBuilder b(kVerbResult);
  b.AddUint("i", index)
      .Add("code", StatusCodeToString(response.status.code()))
      .Add("msg", response.status.message())
      .Add("label", response.label)
      .AddDouble("sens", response.sensitivity)
      .AddBool("hit", response.cache_hit)
      .AddDoubleList("values", response.values);
  AddReceiptFields(b, response.receipt);
  return b.payload();
}

std::string EncodeBoundedResultPayload(size_t index,
                                       const QueryResponse& response,
                                       const obs::TraceContext& trace,
                                       const std::string& batch_tag) {
  std::string payload = EncodeResultPayload(index, response);
  AppendTraceContext(&payload, trace);
  AppendBatchTag(&payload, batch_tag);
  if (payload.size() <= kMaxFramePayload) return payload;
  QueryResponse bounded;
  bounded.status = Status::ResourceExhausted(
      "response payload (" + std::to_string(payload.size()) +
      " bytes) exceeds the " + std::to_string(kMaxFramePayload) +
      "-byte frame cap; serve this query in-process or narrow it");
  bounded.label = response.label;
  bounded.sensitivity = response.sensitivity;
  bounded.cache_hit = response.cache_hit;
  // The receipt is bounded (its strings echo request text, capped at
  // kMaxRequestLine) and must survive: the budget WAS charged.
  bounded.receipt = response.receipt;
  std::string bounded_payload = EncodeResultPayload(index, bounded);
  AppendTraceContext(&bounded_payload, trace);
  AppendBatchTag(&bounded_payload, batch_tag);
  return bounded_payload;
}

std::string EncodeReceiptPayload(size_t index,
                                 const QueryResponse& response) {
  WireMessageBuilder b(kVerbReceipt);
  b.AddUint("i", index);
  AddReceiptFields(b, response.receipt);
  return b.payload();
}

StatusOr<std::pair<size_t, QueryResponse>> ParseResultPayload(
    const WireMessage& msg) {
  QueryResponse response;
  BLOWFISH_ASSIGN_OR_RETURN(uint64_t index, GetUintField(msg, "i"));
  BLOWFISH_RETURN_IF_ERROR(ParseStatusFields(msg, &response.status));
  BLOWFISH_ASSIGN_OR_RETURN(response.label, GetField(msg, "label"));
  BLOWFISH_ASSIGN_OR_RETURN(response.sensitivity,
                            GetDoubleField(msg, "sens"));
  BLOWFISH_ASSIGN_OR_RETURN(response.cache_hit, GetBoolField(msg, "hit"));
  const std::string* values = msg.Find("values");
  if (values == nullptr) return MissingKey(msg, "values");
  BLOWFISH_RETURN_IF_ERROR(ParseWireDoubleList(*values, &response.values));
  BLOWFISH_RETURN_IF_ERROR(ParseReceiptFields(msg, &response.receipt));
  return std::make_pair(static_cast<size_t>(index), std::move(response));
}

Status ParseReceiptPayload(const WireMessage& msg, size_t* index,
                           BudgetReceipt* receipt) {
  BLOWFISH_ASSIGN_OR_RETURN(uint64_t i, GetUintField(msg, "i"));
  *index = static_cast<size_t>(i);
  return ParseReceiptFields(msg, receipt);
}

std::string EncodeStatsPayload() { return kVerbStats; }

std::string EncodeHealthPayload() { return kVerbHealth; }

std::string EncodeMetricPayload(const std::string& name, double value) {
  WireMessageBuilder b(kVerbMetric);
  b.Add("name", name).AddDouble("value", value);
  return b.payload();
}

StatusOr<std::pair<std::string, double>> ParseMetricPayload(
    const WireMessage& msg) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string name, GetField(msg, "name"));
  BLOWFISH_ASSIGN_OR_RETURN(double value, GetDoubleField(msg, "value"));
  return std::make_pair(std::move(name), value);
}

}  // namespace blowfish
