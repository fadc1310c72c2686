#include "engine/budget_accountant.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "util/atomic_file.h"
#include "util/parse.h"

namespace blowfish {

namespace {

constexpr char kLedgerFileHeader[] = "# blowfish-budget-ledger v1";

struct LedgerEntry {
  std::string name;
  double budget = 0.0;
  double spent = 0.0;
};

/// Parses a serialized ledger (header + `<budget>\t<spent>\t<session>`
/// lines). Shared by Load and by SaveToFile's merge, so the two cannot
/// drift on the accepted grammar.
StatusOr<std::vector<LedgerEntry>> ParseLedger(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kLedgerFileHeader) {
    return Status::InvalidArgument(
        "not a budget ledger file (missing '" +
        std::string(kLedgerFileHeader) + "' header)");
  }
  std::vector<LedgerEntry> parsed;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::string context = "ledger line " + std::to_string(line_no);
    const size_t tab1 = line.find('\t');
    const size_t tab2 =
        tab1 == std::string::npos ? std::string::npos
                                  : line.find('\t', tab1 + 1);
    if (tab2 == std::string::npos) {
      return Status::InvalidArgument(
          context + ": expected <budget>\\t<spent>\\t<session>");
    }
    LedgerEntry entry;
    BLOWFISH_ASSIGN_OR_RETURN(
        entry.budget, ParseFiniteDouble(line.substr(0, tab1), context));
    BLOWFISH_ASSIGN_OR_RETURN(
        entry.spent,
        ParseFiniteDouble(line.substr(tab1 + 1, tab2 - tab1 - 1), context));
    if (entry.budget < 0.0 || entry.spent < 0.0) {
      return Status::InvalidArgument(context +
                                     ": budget and spent must be >= 0");
    }
    entry.name = line.substr(tab2 + 1);
    parsed.push_back(std::move(entry));
  }
  return parsed;
}

Status WriteLedgerLine(std::ostream& out, const std::string& name,
                       double budget, double spent) {
  if (name.find('\n') != std::string::npos ||
      name.find('\t') != std::string::npos) {
    return Status::Internal(
        "session name contains a tab or newline and cannot be "
        "serialized");
  }
  std::string line;
  AppendDouble(&line, budget);
  line += '\t';
  AppendDouble(&line, spent);
  line += '\t';
  line += name;
  line += '\n';
  out << line;
  return Status::OK();
}

/// "budget_charges_total" + scope "t" -> "budget_charges_total{tenant=t}".
std::string ScopedMetricName(const std::string& base,
                             const std::string& scope) {
  if (scope.empty()) return base;
  return base + "{tenant=" + scope + "}";
}

}  // namespace

BudgetAccountant::BudgetAccountant(double default_budget,
                                   obs::MetricsRegistry* metrics,
                                   const std::string& metrics_scope,
                                   obs::AuditLog* audit)
    : default_budget_(default_budget),
      audit_(audit != nullptr ? audit : obs::AuditLog::Global()),
      audit_scope_(metrics_scope) {
  if (metrics == nullptr) metrics = obs::MetricsRegistry::Global();
  charges_total_ = metrics->GetCounter(
      ScopedMetricName("budget_charges_total", metrics_scope));
  refunds_total_ = metrics->GetCounter(
      ScopedMetricName("budget_refunds_total", metrics_scope));
  settles_total_ = metrics->GetCounter(
      ScopedMetricName("budget_settles_total", metrics_scope));
  refusals_total_ = metrics->GetCounter(
      ScopedMetricName("budget_refusals_total", metrics_scope));
  eps_charged_total_ = metrics->GetDoubleCounter(
      ScopedMetricName("budget_eps_charged_total", metrics_scope));
  eps_refunded_total_ = metrics->GetDoubleCounter(
      ScopedMetricName("budget_eps_refunded_total", metrics_scope));
}

BudgetAccountant::SessionState& BudgetAccountant::GetOrCreateLocked(
    const std::string& session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    SessionState state;
    state.budget = default_budget_;
    it = sessions_.emplace(session, std::move(state)).first;
  }
  return it->second;
}

Status BudgetAccountant::OpenSession(const std::string& session,
                                     double budget) {
  // !(>= 0) rather than (< 0): NaN passes a < check and would disable
  // enforcement forever (spent + eps > NaN is never true).
  if (!(budget >= 0.0) || !std::isfinite(budget)) {
    return Status::InvalidArgument("session budget must be finite and >= 0");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (sessions_.count(session) > 0) {
      return Status::InvalidArgument("session '" + session +
                                     "' already exists");
    }
    SessionState state;
    state.budget = budget;
    sessions_.emplace(session, std::move(state));
  }
  // Audit write strictly after mu_ is released: the log line must not
  // extend the admission critical section.
  if (audit_->enabled()) {
    obs::TraceEvent event("event", "open");
    event.Uint("ts_us", obs::MonotonicMicros());
    if (!audit_scope_.empty()) event.Str("tenant", audit_scope_);
    event.Str("session", session).Double("budget", budget);
    audit_->Write(std::move(event));
  }
  return Status::OK();
}

StatusOr<BudgetReceipt> BudgetAccountant::ChargeSequential(
    const std::string& session, double epsilon, std::string label) {
  if (epsilon < 0.0) {
    return Status::InvalidArgument("epsilon must be >= 0");
  }
  std::lock_guard<std::mutex> lock(mu_);
  SessionState& state = GetOrCreateLocked(session);
  const double spent = state.spent;
  if (spent + epsilon > state.budget + 1e-12) {
    refusals_total_->Increment();
    return Status::ResourceExhausted(
        "session '" + session + "': charging " + std::to_string(epsilon) +
        " would exceed budget (spent " + std::to_string(spent) + " of " +
        std::to_string(state.budget) + ")");
  }
  BudgetReceipt receipt;
  if (epsilon > 0.0) {
    state.spent += epsilon;
    receipt.charge_id = next_charge_id_++;
    state.open_charges[receipt.charge_id] = epsilon;
  }
  charges_total_->Increment();
  eps_charged_total_->Add(epsilon);
  receipt.session = session;
  receipt.label = std::move(label);
  receipt.charged = epsilon;
  receipt.epsilon = epsilon;
  receipt.remaining = state.budget - state.spent;
  receipt.budget = state.budget;
  return receipt;
}

StatusOr<BudgetReceipt> BudgetAccountant::ChargeParallel(
    const std::string& session, const std::vector<double>& epsilons,
    std::string label) {
  if (epsilons.empty()) {
    return Status::InvalidArgument("parallel group must be non-empty");
  }
  for (double e : epsilons) {
    if (e < 0.0) return Status::InvalidArgument("epsilon must be >= 0");
  }
  const double cost = *std::max_element(epsilons.begin(), epsilons.end());
  std::lock_guard<std::mutex> lock(mu_);
  SessionState& state = GetOrCreateLocked(session);
  const double spent = state.spent;
  if (spent + cost > state.budget + 1e-12) {
    refusals_total_->Increment();
    return Status::ResourceExhausted(
        "session '" + session + "': parallel group of max eps " +
        std::to_string(cost) + " would exceed budget (spent " +
        std::to_string(spent) + " of " + std::to_string(state.budget) + ")");
  }
  BudgetReceipt receipt;
  if (cost > 0.0) {
    state.spent += cost;
    receipt.charge_id = next_charge_id_++;
    state.open_charges[receipt.charge_id] = cost;
  }
  charges_total_->Increment();
  eps_charged_total_->Add(cost);
  receipt.session = session;
  receipt.label = std::move(label);
  receipt.charged = cost;
  receipt.epsilon = cost;
  receipt.remaining = state.budget - state.spent;
  receipt.budget = state.budget;
  receipt.parallel = true;
  return receipt;
}

Status BudgetAccountant::Refund(const BudgetReceipt& receipt) {
  if (receipt.charged < 0.0) {
    return Status::InvalidArgument("refund charge must be >= 0");
  }
  if (receipt.charged == 0.0) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(receipt.session);
  if (it == sessions_.end()) {
    return Status::NotFound("session '" + receipt.session +
                            "' has never been charged");
  }
  SessionState& state = it->second;
  auto charge = state.open_charges.find(receipt.charge_id);
  if (charge == state.open_charges.end()) {
    return Status::FailedPrecondition(
        "receipt's charge is unknown or already refunded (a receipt "
        "refunds at most once)");
  }
  if (charge->second != receipt.charged) {
    return Status::InvalidArgument(
        "receipt claims a charge of " + std::to_string(receipt.charged) +
        " but the ledger recorded " + std::to_string(charge->second));
  }
  if (charge->second > state.spent + 1e-12) {
    return Status::InvalidArgument(
        "refund of " + std::to_string(charge->second) +
        " exceeds total recorded loss " + std::to_string(state.spent));
  }
  state.spent -= charge->second;
  if (state.spent < 0.0) state.spent = 0.0;  // absorb float dust
  refunds_total_->Increment();
  eps_refunded_total_->Add(charge->second);
  state.open_charges.erase(charge);
  return Status::OK();
}

void BudgetAccountant::Settle(const BudgetReceipt& receipt) {
  if (receipt.charge_id == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(receipt.session);
  if (it == sessions_.end()) return;
  if (it->second.open_charges.erase(receipt.charge_id) > 0) {
    settles_total_->Increment();
  }
}

std::vector<BudgetAccountant::SessionInfo> BudgetAccountant::ListSessions()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<SessionInfo> out;
  out.reserve(sessions_.size());
  for (const auto& [name, state] : sessions_) {
    out.push_back(SessionInfo{name, state.budget, state.spent,
                              state.budget - state.spent});
  }
  return out;
}

double BudgetAccountant::Spent(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0.0 : it->second.spent;
}

double BudgetAccountant::Remaining(const std::string& session) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return default_budget_;
  return it->second.budget - it->second.spent;
}

Status BudgetAccountant::Save(std::ostream& out) const {
  // Snapshot under the lock, write outside it: disk I/O must not stall
  // the admission path.
  std::vector<SessionInfo> snapshot = ListSessions();
  out << kLedgerFileHeader << "\n";
  for (const SessionInfo& session : snapshot) {
    BLOWFISH_RETURN_IF_ERROR(
        WriteLedgerLine(out, session.name, session.budget, session.spent));
  }
  if (!out) return Status::Internal("write to ledger stream failed");
  return Status::OK();
}

Status BudgetAccountant::SaveToFile(const std::string& path) const {
  // Read-merge-write under one lock acquisition: a blind overwrite
  // would erase spend another host recorded since this process loaded
  // the file. Sessions this accountant never saw are kept as persisted;
  // sessions both sides know keep the larger spent figure (persisted
  // spend never decreases). Exact when concurrent hosts charge disjoint
  // sessions; hosts charging the *same* session concurrently still
  // undercount (each is blind to the other's in-flight spend) — that
  // needs a shared accountant, not a shared file.
  return AtomicUpdateFile(
      path,
      [this](const std::string* existing, std::ostream& out) -> Status {
        std::map<std::string, SessionInfo> merged;
        for (const SessionInfo& session : ListSessions()) {
          merged[session.name] = session;
        }
        if (existing != nullptr) {
          std::istringstream in(*existing);
          auto persisted = ParseLedger(in);
          // An unparseable existing file (corruption predating the
          // atomic-write protocol) has nothing mergeable; overwrite it.
          if (persisted.ok()) {
            for (const LedgerEntry& entry : *persisted) {
              auto it = merged.find(entry.name);
              if (it == merged.end()) {
                SessionInfo keep;
                keep.name = entry.name;
                keep.budget = entry.budget;
                keep.spent = entry.spent;
                keep.remaining = entry.budget - entry.spent;
                merged[entry.name] = keep;
              } else if (entry.spent > it->second.spent) {
                it->second.spent = entry.spent;
              }
            }
          }
        }
        out << kLedgerFileHeader << "\n";
        for (const auto& [name, session] : merged) {
          BLOWFISH_RETURN_IF_ERROR(
              WriteLedgerLine(out, name, session.budget, session.spent));
        }
        if (!out) return Status::Internal("write to ledger stream failed");
        return Status::OK();
      });
}

Status BudgetAccountant::Load(std::istream& in) {
  // Parse the whole file before touching the accountant, so a file
  // truncated mid-write is rejected without leaving sessions half-merged.
  BLOWFISH_ASSIGN_OR_RETURN(std::vector<LedgerEntry> parsed,
                            ParseLedger(in));
  std::lock_guard<std::mutex> lock(mu_);
  for (const LedgerEntry& entry : parsed) {
    // The file is the cross-process authority: replace, don't add to,
    // any session it names (re-loading the same ledger is idempotent).
    SessionState state;
    state.budget = entry.budget;
    if (entry.spent > 0.0) state.spent = entry.spent;
    sessions_[entry.name] = std::move(state);
  }
  return Status::OK();
}

Status BudgetAccountant::LoadFromFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  return Load(file);
}

std::string BudgetAccountant::ToString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream out;
  out << "BudgetAccountant (" << sessions_.size() << " sessions)\n";
  for (const auto& [name, state] : sessions_) {
    out << "  session '" << name << "': spent "
        << state.spent << " of " << state.budget << "\n";
  }
  return out.str();
}

}  // namespace blowfish
