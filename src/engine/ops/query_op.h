// Pluggable query kinds for the serving layer.
//
// The Blowfish paper's promise is that one policy abstraction serves
// *many* query workloads — histograms, range/CDF/quantile queries,
// k-means, and whatever comes next. The engine therefore does not know
// any workload by name: each query kind is one self-registering QueryOp
// subclass (one file under src/engine/ops/) that owns the kind's entire
// vertical slice —
//
//   Parse               batch-file / CLI key=value arguments
//   Validate            structural checks against the policy
//   SensitivityShape    the cache key its S(f, P) is memoized under
//   ComputeSensitivity  the (possibly NP-hard) S(f, P) computation
//   Charge              the epsilon its release costs
//   ParallelCells       eligibility proof for parallel composition
//   Execute             the mechanism call itself
//
// — and a process-wide QueryOpRegistry maps kind names to ops. The
// ReleaseEngine, the batch-request parser, the CLI, and the EngineHost
// all dispatch through the registry, so adding a workload is one new
// file here, with zero edits to the engine or the server (see
// ops/mean_op.cc and ops/wavelet_range_op.cc, which were added exactly
// that way).
//
// Ops are parsed-query objects: the registry's factory produces an empty
// instance, Parse fills it, and from then on it is immutable (shared by
// const pointer across request copies). Every method must be
// deterministic — Execute's noise comes only from the Random stream the
// engine hands it.

#ifndef BLOWFISH_ENGINE_OPS_QUERY_OP_H_
#define BLOWFISH_ENGINE_OPS_QUERY_OP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/dataset.h"
#include "core/policy.h"
#include "util/histogram.h"
#include "util/random.h"
#include "util/status.h"

namespace blowfish {

/// Key=value arguments for QueryOp::Parse, with leftover tracking: the
/// op Takes the keys it knows, and the caller rejects whatever remains,
/// so unknown keys are errors for every kind without any central key
/// table. Numeric Take* variants share util/parse.h's strict grammar.
class KeyValueBag {
 public:
  /// `context` names the source in errors (e.g. "on line 3").
  explicit KeyValueBag(std::string context)
      : context_(std::move(context)) {}

  void Add(std::string key, std::string value);

  /// Removes every occurrence of `key`; returns the last value (repeated
  /// keys keep last-one-wins semantics), or nullopt if absent.
  std::optional<std::string> Take(const std::string& key);

  /// Typed Takes: *out is written only when the key is present. Parse
  /// errors name the key and the bag's context.
  Status TakeDouble(const std::string& key, double* out);
  Status TakeIndex(const std::string& key, size_t* out);
  Status TakeIndexList(const std::string& key, std::vector<uint64_t>* out);
  Status TakeDoubleList(const std::string& key, std::vector<double>* out);

  /// InvalidArgument naming the first unconsumed key ("unknown key
  /// 'cells' for kind 'mean' ..."), or OK when the bag is empty.
  Status ExpectEmpty(const std::string& kind) const;

  bool empty() const { return items_.empty(); }
  const std::string& context() const { return context_; }

 private:
  std::string context_;
  std::vector<std::pair<std::string, std::string>> items_;
};

/// Knobs ComputeSensitivity inherits from the engine's options.
struct SensitivityEnv {
  /// Edge budget for sensitivity computations on explicit graphs.
  uint64_t max_edges = uint64_t{1} << 24;
  /// Ordered-pair budget for the all-pairs constrained move
  /// enumeration (WeightedPolicyGraph). Quadratic in the domain, so it
  /// has its own knob: sharing max_edges failed pinned-constrained
  /// domains closed past ~4096 values.
  uint64_t max_pairs = uint64_t{1} << 28;
  /// Vertex bound for the exact policy-graph alpha/xi DFS (Thm 8.1).
  size_t max_policy_graph_vertices = 24;
};

/// Everything an admitted query sees at execution time. The histogram is
/// the dataset's complete histogram h(D), which the engine computes once
/// and shares across every query and batch (an empty histogram for ops
/// whose NeedsHistogram() is false).
struct QueryExecContext {
  /// `cumulative` is the engine's memoized S_T. A context built without
  /// one (a benchmark or test running an op directly) derives it from
  /// `hist`. Defined in engine/release_engine.cc, next to the memo, so
  /// S_T is derived in one place.
  QueryExecContext(const Policy& policy, const Dataset& data,
                   const Histogram& hist, double epsilon, double sensitivity,
                   std::shared_ptr<const std::vector<double>> cumulative =
                       nullptr);

  const Policy& policy;
  const Dataset& data;
  const Histogram& hist;
  /// The exact prefix sums S_T of `hist` (Def 7.1) on a 1-D domain; null
  /// on a multi-attribute domain or without h(D).
  std::shared_ptr<const std::vector<double>> cumulative;
  /// The request's privacy parameter.
  double epsilon = 0.0;
  /// The resolved S(f, P); 0 means the release is exact and free.
  double sensitivity = 0.0;
};

/// One query kind's full vertical slice. Instances are parsed queries:
/// immutable after Parse, shared by const pointer.
class QueryOp {
 public:
  virtual ~QueryOp() = default;

  /// The registry key (also the batch-file line prefix). The registry is
  /// the single source of truth for name <-> op round-trips.
  virtual std::string KindName() const = 0;

  /// A minimal `key=value ...` example of the op's own keys ("" when the
  /// op takes none). Drives usage text and the registry round-trip test.
  virtual std::string ExampleArgs() const { return ""; }

  /// Consumes the op's keys from `kv`. The envelope keys (eps, label,
  /// session, group) are already gone; leftovers are rejected by the
  /// caller, so ops must Take everything they accept.
  virtual Status Parse(KeyValueBag& kv) = 0;

  /// Cheap structural checks against the policy (graph shape, domain
  /// arity, cell existence), run per request before sensitivity
  /// resolution. Default: OK.
  virtual Status Validate(const Policy& policy) const;

  /// Cheap data-dependent preconditions (e.g. mean's non-empty
  /// dataset), run right after Validate — still before sensitivity
  /// resolution and budget charging, so a failure refuses at admission
  /// and no charge/refund pair is ever minted. Must not read h(D) (it
  /// may not exist yet).
  /// Default: OK.
  virtual Status ValidateData(const Policy& policy,
                              const Dataset& data) const;

  /// The query-shape string S(f, P) is cached under. Must determine the
  /// sensitivity together with the policy fingerprint: two ops with
  /// equal shapes must have equal S(f, P) under every policy.
  virtual StatusOr<std::string> SensitivityShape() const = 0;

  /// S(f, P). Runs outside the cache lock (it may be NP-hard); must be
  /// deterministic and side-effect free.
  virtual StatusOr<double> ComputeSensitivity(
      const Policy& policy, const SensitivityEnv& env) const = 0;

  /// Epsilon charged against the session budget for this release.
  /// Default: `epsilon`, or 0 for a free (zero-sensitivity) release.
  virtual double Charge(double sensitivity, double epsilon) const;

  /// The G^P partition cells the query touches, for the structural
  /// disjointness proof of parallel composition (Thm 4.2). Default:
  /// FailedPrecondition — the op is not eligible.
  virtual StatusOr<std::vector<uint64_t>> ParallelCells() const;

  /// Whether Execute reads h(D) (ctx.hist). Default: true — correct for
  /// every histogram-linear op; row consumers (k-means) override.
  virtual bool NeedsHistogram() const { return true; }

  /// Runs the admitted query with its own deterministic RNG stream and
  /// returns the released payload (or the mechanism's error).
  virtual StatusOr<std::vector<double>> Execute(const QueryExecContext& ctx,
                                               Random rng) const = 0;
};

/// Uniform structured refusal for ops without constrained-policy
/// support: an Unimplemented status that names the refusing op and the
/// policy it refused (graph kind and constraint count), so a batch with
/// mixed kinds reports *which* op cannot serve *what* instead of a
/// generic "unsupported" string. Ops that serve constrained policies
/// never call this; docs/engine.md holds the support matrix.
Status ConstrainedPolicyUnsupported(const QueryOp& op, const Policy& policy);

/// Process-wide kind-name -> op factory map. Ops self-register via
/// QueryOpRegistrar at static initialization; lookups are lock-guarded
/// and cheap.
class QueryOpRegistry {
 public:
  using Factory = std::function<std::unique_ptr<QueryOp>()>;

  static QueryOpRegistry& Global();

  /// Registers a kind. Duplicate names are a programming error (assert).
  void Register(const std::string& kind, Factory factory);

  /// A fresh unparsed op, or InvalidArgument listing the known kinds.
  StatusOr<std::unique_ptr<QueryOp>> Create(const std::string& kind) const;

  bool Has(const std::string& kind) const;

  /// Registered kind names, sorted.
  std::vector<std::string> KnownKinds() const;

  /// "histogram, kmeans, ..." — for error messages and usage text.
  std::string KnownKindsString() const;

 private:
  /// Must be called with mu_ held.
  std::string KnownKindsStringLocked() const;

  mutable std::mutex mu_;
  std::map<std::string, Factory> factories_;
};

/// File-scope static in each op's .cc:
///   namespace { const QueryOpRegistrar kReg{"mean", [] {
///     return std::make_unique<MeanOp>(); }}; }
struct QueryOpRegistrar {
  QueryOpRegistrar(const std::string& kind, QueryOpRegistry::Factory factory);
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_OPS_QUERY_OP_H_
