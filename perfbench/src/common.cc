// Checks, statistics, and the span recorder shared by the run phases.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "bench.h"
#include "mech/error_models.h"

namespace perfbench {

using blowfish::QueryResponse;

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double ProcStatusMiB(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string prefix = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void Checks::Fail(const std::string& check, const std::string& detail) {
  ++failures_;
  if (printed_ < 20) {
    ++printed_;
    std::printf("check %s FAIL %s\n", check.c_str(), detail.c_str());
  }
}

void Checks::Report(const std::string& check, bool pass,
                    const std::string& detail) {
  if (pass) {
    std::printf("check %s pass %s\n", check.c_str(), detail.c_str());
  } else {
    Fail(check, detail);
  }
}

size_t CheckBatch(
    const Workload& w, const BatchSpec& batch,
    const blowfish::StatusOr<std::vector<QueryResponse>>& result,
    Tally* tally, Checks* checks) {
  const TenantSpec& tenant = w.tenants[batch.tenant];
  if (!result.ok()) {
    checks->Fail("responses_ok", "batch error: " + result.status().ToString());
    return 0;
  }
  const std::vector<QueryResponse>& responses = *result;
  if (responses.size() != batch.queries.size()) {
    checks->Fail("responses_ok", "batch answered " +
                                     std::to_string(responses.size()) + " of " +
                                     std::to_string(batch.queries.size()));
    return 0;
  }
  size_t ok = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const QueryResponse& r = responses[i];
    const QuerySpec& q = batch.queries[i];
    if (!r.status.ok()) {
      checks->Fail("responses_ok", q.line + ": " + r.status.ToString());
      continue;
    }
    if (r.values.size() != q.expect_values) {
      checks->Fail("value_counts", q.line + ": " +
                                       std::to_string(r.values.size()) +
                                       " values, expected " +
                                       std::to_string(q.expect_values));
      continue;
    }
    ++ok;
    tally->charged[batch.tenant] += r.receipt.charged;
    const bool histogram = q.kind == "histogram";
    if (!histogram && q.kind != "cell_histogram") continue;
    // Both kinds release true counts plus Laplace(S/eps) per value, in
    // domain order (restricted to the query's cells for cell_histogram).
    size_t k = 0;
    double sq = 0.0;
    for (blowfish::ValueIndex v = 0; v < tenant.truth.size(); ++v) {
      if (!histogram && std::find(q.cells.begin(), q.cells.end(),
                                  tenant.cell_of[v]) == q.cells.end()) {
        continue;
      }
      const double d = r.values[k++] - tenant.truth[v];
      sq += d * d;
    }
    tally->sq_error += sq;
    tally->predicted_error +=
        static_cast<double>(k) *
        blowfish::LaplaceComponentError(r.sensitivity, r.receipt.epsilon);
    tally->cells += k;
  }
  return ok;
}

namespace {

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool Identical(const std::vector<QueryResponse>& a,
               const std::vector<QueryResponse>& b, std::string* why) {
  if (a.size() != b.size()) {
    *why = "response count " + std::to_string(a.size()) + " vs " +
           std::to_string(b.size());
    return false;
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const QueryResponse& x = a[i];
    const QueryResponse& y = b[i];
    const auto& rx = x.receipt;
    const auto& ry = y.receipt;
    bool same = x.status.code() == y.status.code() &&
                x.status.message() == y.status.message() &&
                x.label == y.label && x.values.size() == y.values.size() &&
                SameBits(x.sensitivity, y.sensitivity) &&
                x.cache_hit == y.cache_hit && rx.session == ry.session &&
                rx.label == ry.label && rx.charge_id == ry.charge_id &&
                SameBits(rx.charged, ry.charged) &&
                SameBits(rx.epsilon, ry.epsilon) &&
                SameBits(rx.remaining, ry.remaining) &&
                SameBits(rx.budget, ry.budget) &&
                rx.parallel == ry.parallel && rx.refunded == ry.refunded;
    for (size_t k = 0; same && k < x.values.size(); ++k) {
      same = SameBits(x.values[k], y.values[k]);
    }
    if (!same) {
      *why = "query " + std::to_string(i) + " differs";
      return false;
    }
  }
  return true;
}

uint64_t SpanRecorder::Record(uint64_t id, uint64_t parent, const char* name,
                              Clock::time_point start, Clock::time_point end) {
  if (id == 0) id = NewId();
  spans_.push_back(Span{
      id, parent, name,
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - origin_)
          .count(),
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - origin_)
          .count()});
  return id;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

void PrintMetric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

void Results::Add(const std::string& name, double value, const char* unit) {
  PrintMetric(name, value, unit);
  items_.emplace_back(name, std::make_pair(value, std::string(unit)));
}

bool Results::Find(const std::string& name, double* value,
                   std::string* unit) const {
  for (const auto& [n, v] : items_) {
    if (n == name) {
      *value = v.first;
      *unit = v.second;
      return true;
    }
  }
  return false;
}

Deployment::~Deployment() {
  for (auto& client : clients) {
    if (client != nullptr) (void)client->Bye();
  }
  clients.clear();
  if (server != nullptr) server->Stop();
  server.reset();
  host.reset();
  if (audit != nullptr) audit->Close();
}

}  // namespace perfbench
