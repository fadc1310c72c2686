// Thread-safe epsilon budget enforcement for the serving layer: the one
// ledger of composed privacy loss (Sec 4.1). It is an authority that
// *refuses* releases which would overspend, not a passive record. The
// BudgetAccountant keeps one running spend total per named session (a
// tenant, analyst, or workload), each with its own epsilon cap against
// the engine's single policy, and charges spends atomically: sequential
// composition adds (Thm 4.1), a parallel group of structurally disjoint
// releases costs only its max (Thms 4.2/4.3).

#ifndef BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_
#define BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_

#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "util/status.h"

namespace blowfish {

/// Proof-of-charge returned with every release.
struct BudgetReceipt {
  std::string session;
  std::string label;
  /// Identifies the ledger charge this receipt proves (0 = no positive
  /// charge was recorded). Refund validates against it, so a receipt can
  /// be refunded at most once and only for what was actually charged.
  uint64_t charge_id = 0;
  /// Epsilon charged to the session by this receipt. For a parallel group
  /// the whole group is covered by one charge of max(eps); the receipts of
  /// the individual queries carry charged = 0 except the group's most
  /// expensive member.
  double charged = 0.0;
  /// The epsilon this query's noise was calibrated to (>= charged for
  /// parallel-group members).
  double epsilon = 0.0;
  /// Session budget left after the charge.
  double remaining = 0.0;
  /// The session's total budget at charge time. Rides the wire receipt
  /// (optional `budget=` key) and the audit log, where it lets a replay
  /// re-open sessions with the exact cap the original run enforced.
  /// 0 when parsed from an older server's receipt.
  double budget = 0.0;
  bool parallel = false;
  /// Set by the engine when the charge was returned because the query
  /// failed after admission (see BudgetAccountant::Refund).
  bool refunded = false;
};

/// Refusing, session-scoped epsilon budget. All methods are thread-safe.
class BudgetAccountant {
 public:
  /// `default_budget` caps sessions that are auto-created on first charge.
  /// `metrics` is where charge/refund/settle/refusal counters and epsilon
  /// totals report (nullptr = process-wide default); `metrics_scope`, when
  /// non-empty, becomes the {tenant=...} label on every budget metric, so
  /// a multi-tenant host's accountants stay distinguishable in one
  /// registry. All metric updates happen under mu_, so the double totals
  /// are exact, not merely eventually consistent.
  ///
  /// `audit` is the privacy audit sink (nullptr = process-wide
  /// AuditLog::Global(), disabled by default). The accountant itself
  /// emits only session-open events — charge/refund/settle/refusal
  /// lines are emitted by the ReleaseEngine at batch end, in ledger
  /// order, off this accountant's mutex (the audit path must never
  /// extend the admission critical section). `metrics_scope` doubles as
  /// the audit tenant label.
  explicit BudgetAccountant(double default_budget,
                            obs::MetricsRegistry* metrics = nullptr,
                            const std::string& metrics_scope = "",
                            obs::AuditLog* audit = nullptr);

  /// Creates a session with an explicit budget. Fails with AlreadyExists
  /// semantics (InvalidArgument) if the session already exists.
  Status OpenSession(const std::string& session, double budget);

  /// Charges a sequential release of `epsilon` (Thm 4.1: losses add).
  /// Refuses with ResourceExhausted — leaving the ledger untouched — if
  /// the charge would push the session past its budget.
  StatusOr<BudgetReceipt> ChargeSequential(const std::string& session,
                                           double epsilon,
                                           std::string label = "");

  /// Charges a parallel group (Thms 4.2/4.3: the group costs
  /// max(epsilons)). The caller is responsible for having validated
  /// structural disjointness; see ReleaseEngine. A member may cost 0 (a
  /// free exact release, which does not move the max); negative
  /// epsilons are refused. Returns one receipt for the whole group.
  StatusOr<BudgetReceipt> ChargeParallel(const std::string& session,
                                         const std::vector<double>& epsilons,
                                         std::string label = "");

  /// Returns a receipt's charge to its session: a query that failed
  /// *after* budget admission (mechanism error mid-batch) spent no
  /// privacy — nothing was released — so its epsilon goes back. The
  /// receipt's charge_id is validated against the session's outstanding
  /// charges, so a receipt refunds at most once (a second attempt fails
  /// with FailedPrecondition — replaying a receipt must not mint budget)
  /// and only for the amount actually recorded. Fails with NotFound for
  /// a session that was never charged. Refunding a zero charge is a
  /// no-op.
  Status Refund(const BudgetReceipt& receipt);

  /// Marks a receipt's charge as delivered — no longer refundable — and
  /// drops its refund-tracking entry, so open_charges stays bounded by
  /// in-flight work instead of growing with lifetime query count. The
  /// engine settles every successful (non-refunded) receipt at batch
  /// end. Idempotent; unknown receipts are ignored.
  void Settle(const BudgetReceipt& receipt);

  /// Total spent / remaining for a session (0 / default budget if the
  /// session does not exist yet).
  double Spent(const std::string& session) const;
  double Remaining(const std::string& session) const;

  /// One session's budget line, for the `sessions` CLI and monitoring.
  struct SessionInfo {
    std::string name;
    double budget = 0.0;
    double spent = 0.0;
    double remaining = 0.0;
  };

  /// Snapshot of every open session, in name order.
  std::vector<SessionInfo> ListSessions() const;

  /// Human-readable multi-session summary.
  std::string ToString() const;

  /// Text serialization, so spend survives the serving process: a
  /// restarted host (or a `sessions` CLI run in another process) sees
  /// what earlier processes charged instead of the opening balances.
  /// Format: a version header, then one `<budget>\t<spent>\t<session>`
  /// line per session, in name order; values are written as shortest
  /// round-trip text (AppendDouble, util/parse.h), which reads back to
  /// the same bits, and files of older 17-significant-digit text still
  /// load. Outstanding (unsettled) charges are persisted as spent —
  /// refunds do not survive a restart.
  Status Save(std::ostream& out) const;
  /// Atomic read-merge-write under the advisory `<path>.lock`
  /// (util/atomic_file.h): sessions another process persisted since
  /// this accountant loaded the file are kept (same-name sessions keep
  /// the larger spent — persisted spend never decreases), and the
  /// locked write-then-rename means concurrent hosts sharing one
  /// ledger file cannot corrupt it. Exact when concurrent hosts charge
  /// disjoint sessions; hosts charging the same session concurrently
  /// still undercount each other's in-flight spend (a shared file is
  /// not a shared accountant).
  Status SaveToFile(const std::string& path) const;

  /// Merges a previously saved ledger into this accountant: each line
  /// creates its session — or *replaces* an existing session's budget
  /// and spend (the file is the authority on cross-process state).
  /// Rejects files that do not start with the version header; a
  /// malformed file leaves the accountant untouched.
  Status Load(std::istream& in);
  Status LoadFromFile(const std::string& path);

 private:
  struct SessionState {
    double budget = 0.0;
    /// Running total: + epsilon per sequential charge, + max per parallel
    /// group, - refunds (clamped at 0). O(1) per session however many
    /// charges it serves.
    double spent = 0.0;
    /// charge_id -> charged epsilon, for charges not yet refunded.
    std::map<uint64_t, double> open_charges;
  };

  /// Must be called with mu_ held.
  SessionState& GetOrCreateLocked(const std::string& session);

  mutable std::mutex mu_;
  double default_budget_;
  uint64_t next_charge_id_ = 1;  // guarded by mu_
  std::map<std::string, SessionState> sessions_;
  /// Resolved once in the constructor; never null. Updated under mu_
  /// only, so snapshots after quiescence are exact.
  obs::Counter* charges_total_;
  obs::Counter* refunds_total_;
  obs::Counter* settles_total_;
  obs::Counter* refusals_total_;
  obs::DoubleCounter* eps_charged_total_;
  obs::DoubleCounter* eps_refunded_total_;
  /// Resolved once in the constructor; never null. Written to only
  /// outside mu_.
  obs::AuditLog* audit_;
  std::string audit_scope_;
};

}  // namespace blowfish

#endif  // BLOWFISH_ENGINE_BUDGET_ACCOUNTANT_H_
