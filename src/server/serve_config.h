// Host configuration files for `blowfish_cli serve` / `sessions`.
//
// A config is newline-separated `key = value` pairs; `#` comments and
// blank lines are ignored, parsing is strict. Keys before the first
// `tenant =` line configure the host; `tenant = <name>` opens a tenant
// block whose keys apply to that tenant:
//
//   # host
//   threads = 4                  # shared pool workers
//   cache_capacity = 1024        # shared sensitivity cache entries
//   cache_file = warm.cache      # optional: load at start, save at exit
//   seed = 20140612              # tenant seeds derive from this
//
//   tenant = census
//   policy = census_policy.txt   # required: policy spec file
//   csv = census.csv             # required: dataset
//   columns = 0                  # CSV columns, one per policy attribute
//   bin_width = 5.0              # optional CSV binning
//   budget = 10                  # default per-session epsilon cap
//   seed = 7                     # optional explicit tenant seed
//   requests = census_reqs.txt   # batch file served by `serve`
//   ledger = census.ledger       # optional: persist budget spend
//   session = alice : 2.5        # open a named session (repeatable)

#ifndef BLOWFISH_SERVER_SERVE_CONFIG_H_
#define BLOWFISH_SERVER_SERVE_CONFIG_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace blowfish {

struct TenantConfig {
  std::string name;
  std::string policy_file;
  std::string csv_file;
  std::vector<size_t> columns = {0};
  std::optional<double> bin_width;
  double budget = 10.0;
  std::optional<uint64_t> seed;
  std::string requests_file;
  /// Optional budget-ledger file: loaded before serving (spend from
  /// earlier processes carries over) and saved back on exit, so
  /// `sessions` reports cross-process spend. One file per tenant — the
  /// accountant is per tenant.
  std::string ledger_file;
  /// (session name, budget) pairs to open before serving.
  std::vector<std::pair<std::string, double>> sessions;
};

struct ServeConfig {
  size_t threads = 4;
  size_t cache_capacity = 1024;
  std::string cache_file;
  std::optional<uint64_t> seed;
  std::vector<TenantConfig> tenants;
};

/// Parses a serve config (see the header comment for the grammar).
/// Requires at least one tenant; every tenant needs `policy` and `csv`;
/// tenant names must be unique. Numeric values go through util/parse.h.
StatusOr<ServeConfig> ParseServeConfig(const std::string& text);

}  // namespace blowfish

#endif  // BLOWFISH_SERVER_SERVE_CONFIG_H_
