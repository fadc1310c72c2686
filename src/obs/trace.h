// Lightweight span tracing: optional JSONL event log for per-batch and
// per-query spans.
//
// Same layering rule as obs/metrics.h: standard library only, no other
// src/ includes, no Status (fallible calls return bool).
//
// The model is deliberately minimal — there is no clock inside, no span
// IDs, no background thread. A caller that wants a span builds a
// TraceEvent (a flat JSON object), stamps whatever fields it owns
// (tenant, op kind, charge_id, epsilon, cache hit, status, duration it
// measured itself), and hands it to a TraceWriter which appends one
// line under a mutex. When the writer is disabled — the default —
// enabled() is a single relaxed atomic load and callers skip building
// the event entirely, so tracing costs nothing until --trace_file turns
// it on.
//
// Determinism: trace emission happens strictly AFTER the traced work
// (the event records results, it does not participate in producing
// them), touches no RNG, and the mutex only orders the log lines, not
// the computation. Lines from concurrent pool threads interleave in
// wall-clock order, which is allowed to differ run to run — the JSONL
// file is diagnostics, not output.

#ifndef BLOWFISH_OBS_TRACE_H_
#define BLOWFISH_OBS_TRACE_H_

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>

namespace blowfish {
namespace obs {

/// A flat JSON object under construction. Field order is insertion
/// order; keys are caller-owned literals and are not escaped (they are
/// identifiers, not data); values are escaped.
class TraceEvent {
 public:
  /// Every event carries a "span" discriminator first: "batch",
  /// "query", ...
  explicit TraceEvent(const char* span_kind);

  /// Same, but with a caller-chosen discriminator key. The audit log
  /// uses this to open lines with {"event":"charge",...} while trace
  /// spans keep {"span":"query",...}.
  TraceEvent(const char* discriminator_key, const char* kind);

  TraceEvent& Str(const char* key, const std::string& value);
  TraceEvent& Int(const char* key, long long value);
  TraceEvent& Uint(const char* key, unsigned long long value);
  TraceEvent& Double(const char* key, double value);  // shortest, bit-exact
  TraceEvent& Bool(const char* key, bool value);

  /// The finished single-line JSON object (no trailing newline).
  std::string Finish() &&;

 private:
  void Key(const char* key);
  std::string buffer_;
};

/// Append-only JSONL sink. Thread-safe; disabled (and free) until
/// Open() succeeds.
class TraceWriter {
 public:
  TraceWriter() = default;
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  /// The process-wide writer (leaked singleton), wired up by
  /// --trace_file in the daemon. Libraries take a TraceWriter* and
  /// never assume the global.
  static TraceWriter* Global();

  /// Opens (truncates) `path` and enables the writer. False on I/O
  /// failure, writer stays disabled.
  bool Open(const std::string& path);

  /// Flushes, closes, disables. Idempotent.
  void Close();

  /// Flushes stdio buffers AND fsyncs the fd, so every line written so
  /// far survives power loss. The serverd drain path calls this before
  /// Close() — per-line writes already fflush (crash-safe against
  /// process death), fsync extends that to the kernel page cache.
  /// No-op when disabled.
  void Flush();

  /// Hot-path guard: one relaxed atomic load. Callers must check this
  /// before building a TraceEvent.
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }

  /// Appends one JSONL line. No-op when disabled (racing a Close is
  /// safe: the file check is re-done under the mutex).
  void Write(TraceEvent&& event);

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::atomic<bool> enabled_{false};
};

}  // namespace obs
}  // namespace blowfish

#endif  // BLOWFISH_OBS_TRACE_H_
