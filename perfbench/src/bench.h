// Shared declarations of the loopback serving benchmark.
//
// The benchmark drives an in-process BlowfishServer (one reactor thread)
// in front of an EngineHost (two pool workers) over loopback TCP, one
// thread per client connection, and reaches every layer only through the
// library's public headers. METRICS.md in this directory defines every
// metric it prints.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "net/client.h"
#include "net/server.h"
#include "server/engine_host.h"
#include "util/random.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Aborts the run (exit 1, no result line) on a setup error: a benchmark
/// that cannot build its inputs has nothing to report.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

template <typename T>
T Must(blowfish::StatusOr<T> v, const std::string& what) {
  if (!v.ok()) Die(what + ": " + v.status().ToString());
  return std::move(*v);
}

inline void Must(const blowfish::Status& s, const std::string& what) {
  if (!s.ok()) Die(what + ": " + s.ToString());
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// /proc/self/status field in MiB ("VmHWM", "VmRSS").
double ProcStatusMiB(const char* field);

// ---- Workloads --------------------------------------------------------------

/// One query of a generated batch, with what the benchmark expects back.
struct QuerySpec {
  std::string kind;
  std::string line;  // batch-file line
  size_t expect_values = 0;
  /// Partition cells of a cell_histogram query (empty otherwise).
  std::vector<uint64_t> cells;
};

struct BatchSpec {
  size_t tenant = 0;
  std::vector<QuerySpec> queries;
  std::string text;  // the lines joined by '\n'
};

struct TenantSpec {
  std::string policy_id;
  std::string dataset_id;
  blowfish::Policy policy;
  std::vector<blowfish::ValueIndex> tuples;
  /// Partition cell of every domain value; empty unless G is a partition.
  std::vector<uint64_t> cell_of;
  /// True counts per domain value, counted here from `tuples`.
  std::vector<double> truth;
  uint64_t root_seed = 0;
  /// Index of the first tenant with the same policy (the verification
  /// tenants are built once per distinct policy).
  size_t policy_group = 0;
};

struct Workload {
  std::string name;
  /// Batches in flight over all connections; each completion releases
  /// the next submission.
  size_t in_flight = 0;
  bool audit = false;
  std::vector<TenantSpec> tenants;
  /// One batch per tenant covering every kind and sensitivity shape the
  /// workload sends to it.
  std::vector<BatchSpec> warmup;
  /// Draws the next batch. `hint` is the tenant whose batch just
  /// finished; a workload may send the replacement there to keep a fixed
  /// depth per connection. rng is the workload's stream.
  BatchSpec (*next)(const Workload& w, blowfish::Random& rng, size_t hint) =
      nullptr;
};

/// Builds the named workload's inputs from `seed`; fails on unknown names.
blowfish::StatusOr<Workload> MakeWorkload(const std::string& name,
                                          uint64_t seed);

/// Joins a batch's query lines into its text.
void FinishBatch(BatchSpec* batch);

// ---- Run state --------------------------------------------------------------

/// Correctness-check outcomes. Any failure makes the run's result line
/// report "correct": false and the process exit non-zero.
class Checks {
 public:
  void Fail(const std::string& check, const std::string& detail);
  /// Prints "check <name> pass|FAIL ..." for a named check.
  void Report(const std::string& check, bool pass, const std::string& detail);
  bool ok() const { return failures_ == 0; }

 private:
  size_t failures_ = 0;
  size_t printed_ = 0;
};

/// Per-tenant epsilon charged according to the receipts, plus the pooled
/// squared error of the Laplace vector releases (histogram and
/// cell_histogram) against the true counts.
struct Tally {
  std::vector<double> charged;  // indexed by tenant
  double sq_error = 0.0;
  double predicted_error = 0.0;
  size_t cells = 0;
};

/// Checks one batch's responses (status, value counts), adds its receipts
/// and release errors to `tally`, and returns the number of OK queries.
/// A batch-level error fails every query in it.
size_t CheckBatch(
    const Workload& w, const BatchSpec& batch,
    const blowfish::StatusOr<std::vector<blowfish::QueryResponse>>& result,
    Tally* tally, Checks* checks);

/// True iff two response vectors agree field for field, doubles bit for
/// bit; `why` names the first difference.
bool Identical(const std::vector<blowfish::QueryResponse>& a,
               const std::vector<blowfish::QueryResponse>& b,
               std::string* why);

/// In-memory span recorder: spans are kept in a vector and written as
/// JSONL when the run ends, never during the measured window.
class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}
  uint64_t NewId() { return next_id_++; }
  /// Records a finished span; returns its id (a fresh one if id == 0).
  uint64_t Record(uint64_t id, uint64_t parent, const char* name,
                  Clock::time_point start, Clock::time_point end);
  bool WriteJsonl(const std::string& path) const;
  size_t size() const { return spans_.size(); }

 private:
  struct Span {
    uint64_t id;
    uint64_t parent;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
  };
  Clock::time_point origin_;
  uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Prints "metric <name> <value> <unit>" for one measured value.
void PrintMetric(const std::string& name, double value, const char* unit);

/// The run's metrics by name, printed as they are added; the result line
/// later selects the end-to-end or per-layer set from them.
class Results {
 public:
  void Add(const std::string& name, double value, const char* unit);
  /// Value and unit of a metric; false if it was never added.
  bool Find(const std::string& name, double* value, std::string* unit) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

/// One in-process loopback deployment: a fresh metrics registry, the
/// audit log, the host, the server, and one client per tenant (index =
/// tenant index). Tears down in dependency order.
struct Deployment {
  Deployment() = default;
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;
  ~Deployment();

  std::unique_ptr<blowfish::obs::MetricsRegistry> metrics;
  std::unique_ptr<blowfish::obs::AuditLog> audit;
  std::unique_ptr<blowfish::EngineHost> host;
  std::unique_ptr<blowfish::BlowfishServer> server;
  std::vector<std::unique_ptr<blowfish::BlowfishClient>> clients;
};

/// The trace-only layer ladder: replays a seeded sample of the workload's
/// batches through each public entry point in turn (wire at depth 1,
/// EngineHost::ServeBatch, ReleaseEngine::ServeBatch, QueryOp::Execute,
/// the codec, Random), times cold sensitivities and engine builds, and
/// adds the per-layer metrics to `results`.
void RunLadder(const Workload& w, Deployment* d, uint64_t seed,
               SpanRecorder* spans, Results* results, Checks* checks);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
