// The one double formatter (util/parse.h AppendDouble, and its obs/
// copy in obs/double_text.h) and backward compatibility of the text
// files it writes:
//
//  * AppendDouble writes the shortest text that reads back to the same
//    bits, and the obs copy writes the same bytes;
//  * a ledger, a sensitivity cache and an audit log written by the
//    older 17-significant-digit writer — kept below as literal text —
//    still load to the same bits;
//  * audit replay of that old log verifies against the old ledger, and
//    rebuilds the new writer's ledger byte for byte.

#include "util/parse.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>

#include "engine/budget_accountant.h"
#include "engine/sensitivity_cache.h"
#include "obs/audit.h"
#include "obs/double_text.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "server/audit_replay.h"
#include "util/random.h"

namespace blowfish {
namespace {

constexpr uint64_t kSeed = 20140612;

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

double FromBits(uint64_t bits) {
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::string Text(double value) {
  std::string out;
  AppendDouble(&out, value);
  return out;
}

// What the older writers produced, verbatim: a session charged 0.1
// then 0.6 of a budget of 1, and a cached sensitivity of 0.1 (cache
// keys join the policy fingerprint and the query shape with \x1f).
constexpr char kOldAuditLog[] =
    "{\"event\":\"charge\",\"ts_us\":100,\"tenant\":\"t\",\"session\":\"s\","
    "\"kind\":\"histogram\",\"label\":\"q\",\"eps\":0.10000000000000001,"
    "\"charged\":0.10000000000000001,\"charge_id\":1,\"budget\":1,"
    "\"remaining\":0.90000000000000002,\"parallel\":false}\n"
    "{\"event\":\"settle\",\"ts_us\":101,\"tenant\":\"t\",\"session\":\"s\","
    "\"charge_id\":1,\"charged\":0.10000000000000001}\n"
    "{\"event\":\"charge\",\"ts_us\":102,\"tenant\":\"t\",\"session\":\"s\","
    "\"kind\":\"histogram\",\"label\":\"q\",\"eps\":0.59999999999999998,"
    "\"charged\":0.59999999999999998,\"charge_id\":2,\"budget\":1,"
    "\"remaining\":0.30000000000000004,\"parallel\":false}\n"
    "{\"event\":\"settle\",\"ts_us\":103,\"tenant\":\"t\",\"session\":\"s\","
    "\"charge_id\":2,\"charged\":0.59999999999999998}\n";
constexpr char kOldLedger[] =
    "# blowfish-budget-ledger v1\n"
    "1\t0.69999999999999996\ts\n";
constexpr char kOldCache[] =
    "# blowfish-sensitivity-cache v1\n"
    "0.10000000000000001\tfp\x1f"
    "h\n";

TEST(AppendDoubleTest, WritesTheShortestRoundTripText) {
  EXPECT_EQ(Text(0.1), "0.1");
  EXPECT_EQ(Text(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(Text(0.0), "0");
  EXPECT_EQ(Text(-0.0), "-0");
  EXPECT_EQ(Text(1.0), "1");
  EXPECT_EQ(Text(std::numeric_limits<double>::denorm_min()), "5e-324");
  EXPECT_EQ(Text(DBL_MAX), "1.7976931348623157e+308");
  EXPECT_EQ(Text(std::numeric_limits<double>::infinity()), "inf");
  EXPECT_EQ(Text(-std::numeric_limits<double>::infinity()), "-inf");

  std::string out = "x=";
  AppendDouble(&out, 2.5);
  EXPECT_EQ(out, "x=2.5");  // appends, never overwrites
}

TEST(AppendDoubleTest, StrtodReadsEveryBitPatternBack) {
  Random rng(kSeed);
  for (int i = 0; i < 100000; ++i) {
    const double value = FromBits(rng.engine()());
    const std::string text = Text(value);
    char* end = nullptr;
    const double back = std::strtod(text.c_str(), &end);
    ASSERT_EQ(end, text.c_str() + text.size()) << text;
    if (std::isnan(value)) {
      ASSERT_TRUE(std::isnan(back)) << text;
      ASSERT_EQ(std::signbit(back), std::signbit(value)) << text;
    } else {
      ASSERT_EQ(Bits(back), Bits(value)) << text;
    }
  }
}

TEST(AppendDoubleTest, ObsCopyWritesTheSameBytes) {
  Random rng(kSeed + 1);
  for (int i = 0; i < 10000; ++i) {
    const double value = FromBits(rng.engine()());
    std::string obs_text;
    obs::AppendDouble(&obs_text, value);
    ASSERT_EQ(obs_text, Text(value));
  }
  // And a trace line carries that text.
  obs::TraceEvent event("q");
  event.Double("eps", 0.1);
  EXPECT_EQ(std::move(event).Finish(), "{\"span\":\"q\",\"eps\":0.1}");
}

TEST(OldDoubleTextTest, LedgerLoadsToTheSameBitsAndResavesShortest) {
  BudgetAccountant accountant(0.0);
  std::istringstream in(kOldLedger);
  ASSERT_TRUE(accountant.Load(in).ok());
  EXPECT_EQ(Bits(accountant.Spent("s")), Bits(0.1 + 0.6));
  EXPECT_EQ(Bits(accountant.Remaining("s")), Bits(1.0 - (0.1 + 0.6)));

  std::ostringstream out;
  ASSERT_TRUE(accountant.Save(out).ok());
  EXPECT_EQ(out.str(), "# blowfish-budget-ledger v1\n1\t0.7\ts\n");
}

TEST(OldDoubleTextTest, SensitivityCacheLoadsToTheSameBits) {
  obs::MetricsRegistry metrics;
  SensitivityCache cache(8, &metrics);
  std::istringstream in(kOldCache);
  ASSERT_TRUE(cache.Load(in).ok());
  bool hit = false;
  auto value = cache.GetOrCompute(
      "fp", "h",
      []() -> StatusOr<double> { return Status::Internal("not cached"); },
      &hit);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_TRUE(hit);
  EXPECT_EQ(Bits(*value), Bits(0.1));

  std::ostringstream out;
  ASSERT_TRUE(cache.Save(out).ok());
  EXPECT_EQ(out.str(),
            "# blowfish-sensitivity-cache v1\n0.1\tfp\x1f"
            "h\n");
}

TEST(OldDoubleTextTest, AuditLogReplaysToTheSameBits) {
  obs::MetricsRegistry metrics;
  obs::AuditLog silent;
  BudgetAccountant accountant(0.0, &metrics, "", &silent);
  std::istringstream audit(kOldAuditLog);
  auto stats = ReplayAuditLog(audit, "t", &accountant);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->charges, 2u);
  EXPECT_EQ(stats->settles, 2u);
  EXPECT_EQ(Bits(accountant.Spent("s")), Bits(0.1 + 0.6));
}

TEST(OldDoubleTextTest, AuditReplayVerifiesAgainstOldAndNewLedgers) {
  // The old writer's ledger verifies: its bits agree with the replay.
  std::istringstream old_audit(kOldAuditLog);
  auto verified = VerifyAuditReplay(old_audit, "t", kOldLedger);
  EXPECT_TRUE(verified.ok()) << verified.status().ToString();

  // The replay rebuilds the new writer's ledger byte for byte.
  std::istringstream audit(kOldAuditLog);
  auto rebuilt = VerifyAuditReplay(
      audit, "t", "# blowfish-budget-ledger v1\n1\t0.7\ts\n");
  EXPECT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  // A ledger one ulp off, in either text form, still fails.
  const double off = std::nextafter(0.1 + 0.6, 1.0);
  char old_text[32];
  std::snprintf(old_text, sizeof(old_text), "%.17g", off);
  for (const std::string& spent : {Text(off), std::string(old_text)}) {
    std::istringstream again(kOldAuditLog);
    auto mismatch = VerifyAuditReplay(
        again, "t", "# blowfish-budget-ledger v1\n1\t" + spent + "\ts\n");
    ASSERT_FALSE(mismatch.ok()) << spent;
    EXPECT_EQ(mismatch.status().code(), StatusCode::kInternal);
  }

  // So does a saved ledger that does not load.
  std::istringstream garbled(kOldAuditLog);
  auto unreadable = VerifyAuditReplay(garbled, "t", "not a ledger\n");
  ASSERT_FALSE(unreadable.ok());
  EXPECT_EQ(unreadable.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace blowfish
