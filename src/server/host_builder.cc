#include "server/host_builder.h"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/policy_spec.h"
#include "data/csv_loader.h"

namespace blowfish {

StatusOr<std::string> ReadTextFile(const std::string& path) {
  std::ifstream file(path);
  if (!file) return Status::NotFound("cannot open '" + path + "'");
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

StatusOr<ServeConfig> LoadServeConfigFile(const std::string& path) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string text, ReadTextFile(path));
  return ParseServeConfig(text);
}

StatusOr<std::pair<Policy, Dataset>> LoadTenantData(
    const TenantConfig& tenant) {
  BLOWFISH_ASSIGN_OR_RETURN(std::string spec_text,
                            ReadTextFile(tenant.policy_file));
  BLOWFISH_ASSIGN_OR_RETURN(ParsedPolicy parsed, ParsePolicySpec(spec_text));
  const Policy& policy = parsed.policy;
  if (tenant.columns.size() != policy.domain().num_attributes()) {
    return Status::InvalidArgument(
        "tenant '" + tenant.name +
        "': number of columns must match the policy's attributes");
  }
  std::vector<CsvColumnSpec> specs;
  for (size_t i = 0; i < tenant.columns.size(); ++i) {
    CsvColumnSpec spec;
    spec.column = tenant.columns[i];
    spec.attribute = policy.domain().attribute(i);
    if (tenant.bin_width.has_value()) spec.bin_width = *tenant.bin_width;
    specs.push_back(spec);
  }
  BLOWFISH_ASSIGN_OR_RETURN(Dataset data,
                            LoadCsvFile(tenant.csv_file, specs));
  return std::make_pair(std::move(parsed.policy), std::move(data));
}

StatusOr<std::unique_ptr<EngineHost>> BuildHostFromConfig(
    const ServeConfig& config) {
  EngineHostOptions host_options;
  host_options.num_threads = config.threads;
  host_options.cache_capacity = config.cache_capacity;
  if (config.seed.has_value()) host_options.root_seed = *config.seed;
  auto host = std::make_unique<EngineHost>(host_options);
  if (!config.cache_file.empty()) {
    Status loaded = host->cache().LoadFromFile(config.cache_file);
    // A missing file is a cold start, not an error.
    if (!loaded.ok() && loaded.code() != StatusCode::kNotFound) {
      return loaded;
    }
  }
  for (const TenantConfig& tenant : config.tenants) {
    BLOWFISH_ASSIGN_OR_RETURN(auto loaded, LoadTenantData(tenant));
    TenantOptions tenant_options;
    tenant_options.default_session_budget = tenant.budget;
    tenant_options.root_seed = tenant.seed;
    BLOWFISH_RETURN_IF_ERROR(
        host->AddTenant(tenant.policy_file, tenant.name,
                        std::move(loaded.first), std::move(loaded.second),
                        tenant_options));
    if (!tenant.sessions.empty() || !tenant.ledger_file.empty()) {
      // Opening sessions / loading the ledger needs the accountant,
      // which forces the engine.
      BLOWFISH_ASSIGN_OR_RETURN(
          ReleaseEngine * engine,
          host->engine(tenant.policy_file, tenant.name));
      for (const auto& [name, budget] : tenant.sessions) {
        BLOWFISH_RETURN_IF_ERROR(
            engine->accountant().OpenSession(name, budget));
      }
      if (!tenant.ledger_file.empty()) {
        // The ledger carries spend from earlier processes and overrides
        // the opening balances above. A missing file is a cold start.
        Status loaded_ledger =
            engine->accountant().LoadFromFile(tenant.ledger_file);
        if (!loaded_ledger.ok() &&
            loaded_ledger.code() != StatusCode::kNotFound) {
          return loaded_ledger;
        }
      }
    }
  }
  return host;
}

Status SaveHostState(EngineHost& host, const ServeConfig& config) {
  if (!config.cache_file.empty()) {
    BLOWFISH_RETURN_IF_ERROR(host.cache().SaveToFile(config.cache_file));
  }
  for (const TenantConfig& tenant : config.tenants) {
    if (tenant.ledger_file.empty()) continue;
    auto engine = host.engine(tenant.policy_file, tenant.name);
    // A tenant whose engine failed to construct has no spend to flush.
    if (!engine.ok()) continue;
    BLOWFISH_RETURN_IF_ERROR(
        (*engine)->accountant().SaveToFile(tenant.ledger_file));
  }
  return Status::OK();
}

}  // namespace blowfish
