// Replayable privacy audit: rebuild a BudgetAccountant from its audit
// log and prove the rebuild matches the ledger the live run saved.
//
// The audit log (obs/audit.h) records every budget-affecting event —
// session open, charge, refund, settle, refusal — in exact
// ledger-operation order (engine/release_engine.h documents the
// ordering guarantee). Replaying those events through a FRESH
// accountant therefore reproduces the live accountant's final state
// bit for bit: the same charge ids are minted in the same order, the
// same doubles are added in the same order, and Save() emits the same
// bytes. VerifyAuditReplay is that proof; blowfish_audit is its CLI.
//
// What replay covers: everything a live run charges, refunds, and
// settles from a cold start. What it does not cover: spend restored
// from a pre-existing ledger file at startup (BudgetAccountant::Load
// happens before the audit log opens and is out of scope — replay a
// log against the ledger written by the SAME run).

#ifndef BLOWFISH_SERVER_AUDIT_REPLAY_H_
#define BLOWFISH_SERVER_AUDIT_REPLAY_H_

#include <cstddef>
#include <iosfwd>
#include <string>

#include "engine/budget_accountant.h"
#include "util/status.h"

namespace blowfish {

struct AuditReplayStats {
  size_t opens = 0;
  size_t charges = 0;
  size_t refunds = 0;
  size_t settles = 0;
  size_t refusals = 0;
  /// Lines skipped: other tenants' events, trace spans concatenated
  /// into the same file, blank lines.
  size_t skipped = 0;
};

/// Replays the audit JSONL on `in` into `accountant` (which must be
/// fresh — no prior sessions or charges). Only events whose "tenant"
/// field equals `tenant` are applied; an empty `tenant` applies events
/// that carry NO tenant field (a bare, un-scoped accountant). Every
/// applied charge's minted charge_id — and its resulting remaining
/// budget — is checked against what the log recorded, so a truncated,
/// reordered, or edited log fails loudly (Internal) instead of
/// replaying to a silently different ledger. Refusals are counted, not
/// re-attempted (a refusal never touched the ledger).
StatusOr<AuditReplayStats> ReplayAuditLog(std::istream& in,
                                          const std::string& tenant,
                                          BudgetAccountant* accountant);

/// ReplayAuditLog into a fresh accountant, then byte-compares its
/// Save() serialization against `expected_ledger` (the text a live
/// accountant's Save wrote) as re-saved by this build's writer, so
/// older digit forms of the same doubles still match. Mismatch, or a
/// saved ledger that does not load, is Internal with both texts in the
/// message.
StatusOr<AuditReplayStats> VerifyAuditReplay(
    std::istream& audit, const std::string& tenant,
    const std::string& expected_ledger);

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_AUDIT_REPLAY_H_
