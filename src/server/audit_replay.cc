#include "server/audit_replay.h"

#include <cstdlib>
#include <istream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/jsonl.h"

namespace blowfish {

namespace {

/// Typed field access over one parsed audit line. Missing or mistyped
/// fields are InvalidArgument — an audit line is a record, not a
/// suggestion.
StatusOr<std::string> GetStr(const std::vector<obs::JsonField>& fields,
                             const char* key) {
  const obs::JsonField* f = obs::FindJsonField(fields, key);
  if (f == nullptr || !f->is_string) {
    return Status::InvalidArgument(std::string("missing string field \"") +
                                   key + "\"");
  }
  return f->value;
}

StatusOr<double> GetDouble(const std::vector<obs::JsonField>& fields,
                           const char* key) {
  const obs::JsonField* f = obs::FindJsonField(fields, key);
  if (f == nullptr || f->is_string) {
    return Status::InvalidArgument(std::string("missing number field \"") +
                                   key + "\"");
  }
  char* end = nullptr;
  const double value = std::strtod(f->value.c_str(), &end);
  if (end != f->value.c_str() + f->value.size()) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" is not a number: " + f->value);
  }
  return value;
}

StatusOr<uint64_t> GetUint(const std::vector<obs::JsonField>& fields,
                           const char* key) {
  const obs::JsonField* f = obs::FindJsonField(fields, key);
  if (f == nullptr || f->is_string) {
    return Status::InvalidArgument(std::string("missing number field \"") +
                                   key + "\"");
  }
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(f->value.c_str(), &end, 10);
  if (end != f->value.c_str() + f->value.size()) {
    return Status::InvalidArgument(std::string("field \"") + key +
                                   "\" is not an unsigned integer: " +
                                   f->value);
  }
  return static_cast<uint64_t>(value);
}

StatusOr<bool> GetBool(const std::vector<obs::JsonField>& fields,
                       const char* key) {
  const obs::JsonField* f = obs::FindJsonField(fields, key);
  if (f == nullptr || f->is_string ||
      (f->value != "true" && f->value != "false")) {
    return Status::InvalidArgument(std::string("missing bool field \"") +
                                   key + "\"");
  }
  return f->value == "true";
}

Status Annotate(const Status& status, size_t line_number) {
  return Status(status.code(), "audit line " + std::to_string(line_number) +
                                   ": " + status.message());
}

}  // namespace

StatusOr<AuditReplayStats> ReplayAuditLog(std::istream& in,
                                          const std::string& tenant,
                                          BudgetAccountant* accountant) {
  AuditReplayStats stats;
  // Sessions whose budget cap the replay already knows (an "open" event
  // or a prior charge's recorded budget). A charge against an unknown
  // session re-opens it with the cap the event recorded — that is how
  // auto-created sessions (default budget, no explicit open) replay.
  std::set<std::string> opened;
  std::string line;
  size_t line_number = 0;
  std::vector<obs::JsonField> fields;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) {
      ++stats.skipped;
      continue;
    }
    if (!obs::ParseFlatJsonLine(line, &fields)) {
      return Status::InvalidArgument("audit line " +
                                     std::to_string(line_number) +
                                     ": not a flat JSON object");
    }
    const obs::JsonField* kind = obs::FindJsonField(fields, "event");
    if (kind == nullptr || !kind->is_string) {
      ++stats.skipped;  // a trace span or foreign line, not an audit event
      continue;
    }
    const obs::JsonField* scope = obs::FindJsonField(fields, "tenant");
    const std::string line_tenant =
        scope != nullptr && scope->is_string ? scope->value : "";
    if (line_tenant != tenant) {
      ++stats.skipped;
      continue;
    }

    auto session = GetStr(fields, "session");
    if (!session.ok()) return Annotate(session.status(), line_number);

    if (kind->value == "open") {
      auto budget = GetDouble(fields, "budget");
      if (!budget.ok()) return Annotate(budget.status(), line_number);
      const Status opened_status = accountant->OpenSession(*session, *budget);
      if (!opened_status.ok()) return Annotate(opened_status, line_number);
      opened.insert(*session);
      ++stats.opens;
      continue;
    }

    if (kind->value == "charge") {
      auto label = GetStr(fields, "label");
      auto charged = GetDouble(fields, "charged");
      auto charge_id = GetUint(fields, "charge_id");
      auto budget = GetDouble(fields, "budget");
      auto remaining = GetDouble(fields, "remaining");
      auto parallel = GetBool(fields, "parallel");
      for (const Status& s :
           {label.status(), charged.status(), charge_id.status(),
            budget.status(), remaining.status(), parallel.status()}) {
        if (!s.ok()) return Annotate(s, line_number);
      }
      if (opened.insert(*session).second) {
        // First sight of an auto-created session: re-create it with the
        // cap the live accountant enforced at this charge.
        const Status open_status =
            accountant->OpenSession(*session, *budget);
        if (!open_status.ok()) return Annotate(open_status, line_number);
      }
      auto receipt =
          *parallel
              ? accountant->ChargeParallel(*session, {*charged}, *label)
              : accountant->ChargeSequential(*session, *charged, *label);
      if (!receipt.ok()) return Annotate(receipt.status(), line_number);
      if (receipt->charge_id != *charge_id) {
        return Status::Internal(
            "audit line " + std::to_string(line_number) +
            ": replay minted charge_id " +
            std::to_string(receipt->charge_id) + " but the log recorded " +
            std::to_string(*charge_id) +
            " — the log is incomplete or reordered");
      }
      if (receipt->remaining != *remaining) {
        std::ostringstream msg;
        msg.precision(17);
        msg << "audit line " << line_number << ": replay left "
            << receipt->remaining << " remaining but the log recorded "
            << *remaining << " — the log is incomplete or edited";
        return Status::Internal(msg.str());
      }
      ++stats.charges;
      continue;
    }

    if (kind->value == "refund") {
      auto label = GetStr(fields, "label");
      auto charge_id = GetUint(fields, "charge_id");
      auto charged = GetDouble(fields, "charged");
      for (const Status& s :
           {label.status(), charge_id.status(), charged.status()}) {
        if (!s.ok()) return Annotate(s, line_number);
      }
      BudgetReceipt receipt;
      receipt.session = *session;
      receipt.label = *label;
      receipt.charge_id = *charge_id;
      receipt.charged = *charged;
      const Status refunded = accountant->Refund(receipt);
      if (!refunded.ok()) return Annotate(refunded, line_number);
      ++stats.refunds;
      continue;
    }

    if (kind->value == "settle") {
      auto charge_id = GetUint(fields, "charge_id");
      auto charged = GetDouble(fields, "charged");
      for (const Status& s : {charge_id.status(), charged.status()}) {
        if (!s.ok()) return Annotate(s, line_number);
      }
      BudgetReceipt receipt;
      receipt.session = *session;
      receipt.charge_id = *charge_id;
      receipt.charged = *charged;
      accountant->Settle(receipt);
      ++stats.settles;
      continue;
    }

    if (kind->value == "refuse") {
      // A refusal never touched the ledger; count it for the report.
      ++stats.refusals;
      continue;
    }

    return Status::InvalidArgument("audit line " +
                                   std::to_string(line_number) +
                                   ": unknown event \"" + kind->value +
                                   "\"");
  }
  return stats;
}

StatusOr<AuditReplayStats> VerifyAuditReplay(
    std::istream& audit, const std::string& tenant,
    const std::string& expected_ledger) {
  // default_budget never applies: replay explicitly opens every session
  // with the cap the log recorded before charging it. The scratch
  // registry and never-opened audit sink keep the replay from feeding
  // back into the calling process's live telemetry.
  obs::MetricsRegistry scratch;
  static obs::AuditLog* const silent = new obs::AuditLog();
  BudgetAccountant accountant(0.0, &scratch, "", silent);
  BLOWFISH_ASSIGN_OR_RETURN(AuditReplayStats stats,
                            ReplayAuditLog(audit, tenant, &accountant));
  std::ostringstream rebuilt;
  BLOWFISH_RETURN_IF_ERROR(accountant.Save(rebuilt));
  // The saved ledger is loaded and re-saved through the same writer
  // before the byte compare, so a ledger whose numbers an older build
  // wrote as 17-significant-digit text verifies when its bits agree.
  BudgetAccountant saved(0.0, &scratch, "", silent);
  std::istringstream saved_in(expected_ledger);
  std::ostringstream resaved;
  if (!saved.Load(saved_in).ok() || !saved.Save(resaved).ok() ||
      rebuilt.str() != resaved.str()) {
    return Status::Internal(
        "replayed ledger differs from the saved one\n--- replayed ---\n" +
        rebuilt.str() + "--- saved ---\n" + expected_ledger);
  }
  return stats;
}

}  // namespace blowfish
