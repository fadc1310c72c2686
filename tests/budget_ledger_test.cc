// Budget-ledger persistence (BudgetAccountant::Save/Load) and the
// advisory file lock guarding shared save paths.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/policy.h"
#include "engine/batch_request.h"
#include "engine/budget_accountant.h"
#include "engine/release_engine.h"
#include "util/file_lock.h"
#include "util/random.h"

namespace blowfish {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "blowfish_" + name + "_" +
         std::to_string(static_cast<long>(::getpid()));
}

TEST(BudgetLedgerTest, SaveLoadRoundTripIsExact) {
  BudgetAccountant original(10.0);
  ASSERT_TRUE(original.OpenSession("alice", 2.5).ok());
  ASSERT_TRUE(original.OpenSession("bob", 1.0).ok());
  ASSERT_TRUE(original.ChargeSequential("alice", 0.7).ok());
  ASSERT_TRUE(original.ChargeSequential("", 0.123456789012345).ok());

  std::ostringstream out;
  ASSERT_TRUE(original.Save(out).ok());
  BudgetAccountant restored(10.0);
  std::istringstream in(out.str());
  ASSERT_TRUE(restored.Load(in).ok());

  const auto before = original.ListSessions();
  const auto after = restored.ListSessions();
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(before[i].name, after[i].name);
    // Shortest round-trip text (std::to_chars) reads back bit-exactly.
    EXPECT_EQ(before[i].budget, after[i].budget);
    EXPECT_EQ(before[i].spent, after[i].spent);
  }
}

TEST(BudgetLedgerTest, LoadedSpendIsEnforced) {
  // The point of persistence: a restarted process must refuse what the
  // previous process could no longer afford.
  BudgetAccountant first(1.0);
  ASSERT_TRUE(first.ChargeSequential("", 0.8).ok());
  std::ostringstream out;
  ASSERT_TRUE(first.Save(out).ok());

  BudgetAccountant second(1.0);
  std::istringstream in(out.str());
  ASSERT_TRUE(second.Load(in).ok());
  EXPECT_DOUBLE_EQ(second.Spent(""), 0.8);
  EXPECT_EQ(second.ChargeSequential("", 0.5).status().code(),
            StatusCode::kResourceExhausted);
  EXPECT_TRUE(second.ChargeSequential("", 0.2).ok());
}

TEST(BudgetLedgerTest, LoadReplacesExistingSessions) {
  BudgetAccountant saved(10.0);
  ASSERT_TRUE(saved.OpenSession("alice", 5.0).ok());
  ASSERT_TRUE(saved.ChargeSequential("alice", 1.5).ok());
  std::ostringstream out;
  ASSERT_TRUE(saved.Save(out).ok());

  BudgetAccountant target(10.0);
  ASSERT_TRUE(target.OpenSession("alice", 2.0).ok());  // opening balance
  std::istringstream in(out.str());
  ASSERT_TRUE(target.Load(in).ok());
  // The ledger file is the authority: budget and spend both replaced.
  EXPECT_DOUBLE_EQ(target.Spent("alice"), 1.5);
  EXPECT_DOUBLE_EQ(target.Remaining("alice"), 3.5);
  // Idempotent: loading the same ledger again changes nothing.
  std::istringstream again(out.str());
  ASSERT_TRUE(target.Load(again).ok());
  EXPECT_DOUBLE_EQ(target.Spent("alice"), 1.5);
}

TEST(BudgetLedgerTest, MalformedFilesRejectedWithoutSideEffects) {
  BudgetAccountant accountant(10.0);
  ASSERT_TRUE(accountant.ChargeSequential("keep", 0.25).ok());
  for (const char* bad :
       {"",                                        // no header
        "# wrong header\n1\t0\tx\n",               // bad header
        "# blowfish-budget-ledger v1\ngarbage\n",  // no tabs
        "# blowfish-budget-ledger v1\n1\tx\ts\n",  // non-numeric spent
        "# blowfish-budget-ledger v1\n1\t-2\ts\n",  // negative spent
        "# blowfish-budget-ledger v1\nnan\t0\ts\n"}) {
    std::istringstream in(bad);
    EXPECT_FALSE(accountant.Load(in).ok()) << "'" << bad << "'";
  }
  // Nothing was half-merged.
  EXPECT_EQ(accountant.ListSessions().size(), 1u);
  EXPECT_DOUBLE_EQ(accountant.Spent("keep"), 0.25);
}

TEST(BudgetLedgerTest, FileRoundTripAcrossEngines) {
  // Simulates two serving processes sharing one ledger file: the first
  // engine's spend constrains the second engine.
  const std::string path = TempPath("ledger");
  auto domain =
      std::make_shared<const Domain>(Domain::Line(16).value());
  Policy policy = Policy::FullDomain(domain).value();
  Random rng(7);
  std::vector<ValueIndex> tuples;
  for (int i = 0; i < 100; ++i) {
    tuples.push_back(static_cast<ValueIndex>(rng.UniformInt(0, 15)));
  }
  Dataset data = Dataset::Create(domain, std::move(tuples)).value();

  ReleaseEngineOptions options;
  options.default_session_budget = 1.0;
  {
    auto first = ReleaseEngine::Create(policy, data, options);
    ASSERT_TRUE(first.ok());
    auto responses =
        (*first)->ServeBatch({MakeQueryRequest("histogram", 0.9).value()});
    ASSERT_TRUE(responses[0].status.ok());
    ASSERT_TRUE((*first)->accountant().SaveToFile(path).ok());
  }
  {
    auto second = ReleaseEngine::Create(policy, data, options);
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE((*second)->accountant().LoadFromFile(path).ok());
    EXPECT_DOUBLE_EQ((*second)->accountant().Spent(""), 0.9);
    // 0.9 of the 1.0 budget is gone across processes.
    auto refused =
        (*second)->ServeBatch({MakeQueryRequest("histogram", 0.5).value()});
    EXPECT_EQ(refused[0].status.code(), StatusCode::kResourceExhausted);
  }
  std::remove(path.c_str());
  EXPECT_EQ(BudgetAccountant(1.0).LoadFromFile(path).code(),
            StatusCode::kNotFound);
}

TEST(FileLockTest, ExcludesSecondAcquirerUntilReleased) {
  const std::string path = TempPath("locktarget");
  auto lock = FileLock::Acquire(path, 500);
  ASSERT_TRUE(lock.ok()) << lock.status().ToString();
  // A live owner (this process) blocks a second acquire past timeout.
  auto contender = FileLock::Acquire(path, 50);
  EXPECT_EQ(contender.status().code(), StatusCode::kResourceExhausted);
  lock->Release();
  auto after = FileLock::Acquire(path, 500);
  EXPECT_TRUE(after.ok()) << after.status().ToString();
}

TEST(FileLockTest, LockFileFromCrashedOwnerIsFreeImmediately) {
  // A crashed process leaves its lock *file* behind but the kernel
  // dropped its flock, so the next acquirer proceeds at once — no
  // stale-pid judgement (and no unlink race) involved.
  const std::string path = TempPath("stalelock");
  {
    std::ofstream forged(path + ".lock");
    forged << "999999999\n";
  }
  auto lock = FileLock::Acquire(path, 500);
  EXPECT_TRUE(lock.ok()) << lock.status().ToString();
}

TEST(FileLockTest, GarbledLockFileIsStillJustALockFile) {
  // The pid stamp is diagnostic only; garbage content cannot wedge the
  // lock because exclusion is the flock, not the file contents.
  const std::string path = TempPath("garbledlock");
  {
    std::ofstream forged(path + ".lock");
    forged << "not-a-pid";
  }
  auto lock = FileLock::Acquire(path, 500);
  EXPECT_TRUE(lock.ok()) << lock.status().ToString();
}

TEST(BudgetLedgerTest, SaveMergesConcurrentProcessesSessions) {
  // Two hosts share one ledger file and charge *disjoint* sessions;
  // the second save must keep the first host's session instead of
  // overwriting the file with only its own view.
  const std::string path = TempPath("mergeledger");
  std::remove(path.c_str());
  BudgetAccountant host_a(10.0);
  ASSERT_TRUE(host_a.ChargeSequential("alice", 0.4).ok());
  BudgetAccountant host_b(10.0);
  ASSERT_TRUE(host_b.ChargeSequential("bob", 0.9).ok());
  ASSERT_TRUE(host_a.SaveToFile(path).ok());
  ASSERT_TRUE(host_b.SaveToFile(path).ok());

  BudgetAccountant combined(10.0);
  ASSERT_TRUE(combined.LoadFromFile(path).ok());
  EXPECT_DOUBLE_EQ(combined.Spent("alice"), 0.4);
  EXPECT_DOUBLE_EQ(combined.Spent("bob"), 0.9);

  // Same-name sessions keep the larger spent: persisted spend never
  // decreases when a host with a shorter history saves later.
  BudgetAccountant stale(10.0);
  ASSERT_TRUE(stale.ChargeSequential("bob", 0.1).ok());
  ASSERT_TRUE(stale.SaveToFile(path).ok());
  BudgetAccountant after(10.0);
  ASSERT_TRUE(after.LoadFromFile(path).ok());
  EXPECT_DOUBLE_EQ(after.Spent("bob"), 0.9);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace blowfish
