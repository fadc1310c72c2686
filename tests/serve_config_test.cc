#include "server/serve_config.h"

#include <gtest/gtest.h>

namespace blowfish {
namespace {

TEST(ServeConfigTest, ParsesHostAndTenantBlocks) {
  const std::string text =
      "# host section\n"
      "threads = 8\n"
      "cache_capacity = 512\n"
      "cache_file = warm.cache\n"
      "seed = 99\n"
      "\n"
      "tenant = census\n"
      "policy = census_policy.txt\n"
      "csv = census.csv\n"
      "columns = 0, 2\n"
      "bin_width = 5.0\n"
      "budget = 4.5\n"
      "seed = 7\n"
      "requests = census_reqs.txt\n"
      "ledger = census.ledger\n"
      "session = alice : 2.5\n"
      "session = bob : 1.0\n"
      "\n"
      "tenant = salaries\n"
      "policy = salary_policy.txt\n"
      "csv = salaries.csv  # trailing comment\n";
  auto config = ParseServeConfig(text);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->threads, 8u);
  EXPECT_EQ(config->cache_capacity, 512u);
  EXPECT_EQ(config->cache_file, "warm.cache");
  ASSERT_TRUE(config->seed.has_value());
  EXPECT_EQ(*config->seed, 99u);
  ASSERT_EQ(config->tenants.size(), 2u);

  const TenantConfig& census = config->tenants[0];
  EXPECT_EQ(census.name, "census");
  EXPECT_EQ(census.policy_file, "census_policy.txt");
  EXPECT_EQ(census.csv_file, "census.csv");
  EXPECT_EQ(census.columns, (std::vector<size_t>{0, 2}));
  ASSERT_TRUE(census.bin_width.has_value());
  EXPECT_DOUBLE_EQ(*census.bin_width, 5.0);
  EXPECT_DOUBLE_EQ(census.budget, 4.5);
  ASSERT_TRUE(census.seed.has_value());
  EXPECT_EQ(*census.seed, 7u);
  EXPECT_EQ(census.requests_file, "census_reqs.txt");
  EXPECT_EQ(census.ledger_file, "census.ledger");
  ASSERT_EQ(census.sessions.size(), 2u);
  EXPECT_EQ(census.sessions[0].first, "alice");
  EXPECT_DOUBLE_EQ(census.sessions[0].second, 2.5);
  EXPECT_EQ(census.sessions[1].first, "bob");

  const TenantConfig& salaries = config->tenants[1];
  EXPECT_EQ(salaries.name, "salaries");
  EXPECT_EQ(salaries.csv_file, "salaries.csv");  // comment stripped
  // Defaults for unspecified tenant keys.
  EXPECT_EQ(salaries.columns, (std::vector<size_t>{0}));
  EXPECT_FALSE(salaries.bin_width.has_value());
  EXPECT_DOUBLE_EQ(salaries.budget, 10.0);
  EXPECT_FALSE(salaries.seed.has_value());
  EXPECT_TRUE(salaries.requests_file.empty());
  EXPECT_TRUE(salaries.ledger_file.empty());
}

TEST(ServeConfigTest, RejectsMalformedInput) {
  // No tenants at all.
  EXPECT_FALSE(ParseServeConfig("threads = 4\n").ok());
  // Tenant keys before any tenant line.
  EXPECT_FALSE(ParseServeConfig("policy = p.txt\n").ok());
  // Unknown keys, host or tenant.
  EXPECT_FALSE(ParseServeConfig("frobnicate = 1\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbogus = 1\n").ok());
  // Missing '='.
  EXPECT_FALSE(ParseServeConfig("tenant t\n").ok());
  // Malformed numbers. NaN/inf budgets would silently disable budget
  // enforcement, so non-finite values are rejected at parse time.
  EXPECT_FALSE(ParseServeConfig("threads = many\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = nan\n")
          .ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = inf\n")
          .ok());
  EXPECT_FALSE(ParseServeConfig(
                   "tenant = t\npolicy = p\ncsv = c\nsession = a : nan\n")
                   .ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nbudget = x\n").ok());
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nseed = -1\n").ok());
  // Out-of-range integers must error, not clamp to ULLONG_MAX.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p\ncsv = c\n"
                                "seed = 99999999999999999999999\n")
                   .ok());
  // Tenant missing required files.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p.txt\n").ok());
  EXPECT_FALSE(ParseServeConfig("tenant = t\ncsv = d.csv\n").ok());
  // Duplicate tenant names.
  EXPECT_FALSE(ParseServeConfig("tenant = t\npolicy = p\ncsv = c\n"
                                "tenant = t\npolicy = p\ncsv = c\n")
                   .ok());
  // `scan =` is not a tenant key.
  auto scan =
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nscan = row\n");
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().message().find("unknown tenant key"),
            std::string::npos)
      << scan.status().ToString();
  // Malformed session declarations.
  EXPECT_FALSE(
      ParseServeConfig("tenant = t\npolicy = p\ncsv = c\nsession = alice\n")
          .ok());
  EXPECT_FALSE(ParseServeConfig(
                   "tenant = t\npolicy = p\ncsv = c\nsession = : 1.0\n")
                   .ok());
}

TEST(ServeConfigTest, CommentsAndBlankLinesIgnored) {
  auto config = ParseServeConfig(
      "# a comment\n"
      "\n"
      "   \n"
      "tenant = t   # tenant comment\n"
      "policy = p.txt\n"
      "csv = d.csv\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  ASSERT_EQ(config->tenants.size(), 1u);
  EXPECT_EQ(config->tenants[0].name, "t");
}

}  // namespace
}  // namespace blowfish
