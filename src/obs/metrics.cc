#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <thread>

#include "obs/double_text.h"

namespace blowfish {
namespace obs {

size_t ThisThreadShard() {
  thread_local const size_t shard =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      kMetricShards;
  return shard;
}

uint64_t MonotonicMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

uint64_t Histogram::BucketUpperBound(size_t index) {
  if (index >= kBuckets - 1) index = kBuckets - 2;
  return uint64_t{1} << index;
}

Histogram::Totals Histogram::Aggregate() const {
  Totals totals;
  for (const Shard& shard : shards_) {
    for (size_t i = 0; i < kBuckets; ++i) {
      const uint64_t n = shard.buckets[i].load(std::memory_order_relaxed);
      totals.buckets[i] += n;
      totals.count += n;
    }
    totals.sum_micros += shard.sum_micros.load(std::memory_order_relaxed);
  }
  return totals;
}

double Histogram::Quantile(const Totals& totals, double q) {
  if (totals.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target observation (1-based, ceil'd so q=1 lands on the
  // last observation exactly).
  const double target = q * static_cast<double>(totals.count);
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    const uint64_t in_bucket = totals.buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation inside [lo, hi). The overflow bucket has
      // no honest upper bound; clamp to its lower bound rather than
      // extrapolate.
      const uint64_t hi = BucketUpperBound(i);
      const uint64_t lo = i == 0 ? 0 : BucketUpperBound(i - 1);
      if (i == kBuckets - 1) return static_cast<double>(lo);
      const double into =
          (target - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      return static_cast<double>(lo) +
             into * static_cast<double>(hi - lo);
    }
    seen += in_bucket;
  }
  return static_cast<double>(BucketUpperBound(kBuckets - 1));
}

MetricsRegistry* MetricsRegistry::Global() {
  // Leaked on purpose: instrumented singletons (thread pools, caches)
  // may outlive static destruction order.
  static MetricsRegistry* const global = new MetricsRegistry();
  return global;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kind = kinds_.emplace(name, Kind::kCounter);
  if (!kind.second && kind.first->second != Kind::kCounter) return nullptr;
  auto& slot = counters_[name];
  if (slot == nullptr) slot.reset(new Counter());
  return slot.get();
}

DoubleCounter* MetricsRegistry::GetDoubleCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kind = kinds_.emplace(name, Kind::kDoubleCounter);
  if (!kind.second && kind.first->second != Kind::kDoubleCounter) {
    return nullptr;
  }
  auto& slot = double_counters_[name];
  if (slot == nullptr) slot.reset(new DoubleCounter());
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kind = kinds_.emplace(name, Kind::kGauge);
  if (!kind.second && kind.first->second != Kind::kGauge) return nullptr;
  auto& slot = gauges_[name];
  if (slot == nullptr) slot.reset(new Gauge());
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto kind = kinds_.emplace(name, Kind::kHistogram);
  if (!kind.second && kind.first->second != Kind::kHistogram) return nullptr;
  auto& slot = histograms_[name];
  if (slot == nullptr) slot.reset(new Histogram());
  return slot.get();
}

std::string SpliceMetricSuffix(const std::string& name,
                               const std::string& suffix) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos) return name + suffix;
  return name.substr(0, brace) + suffix + name.substr(brace);
}

std::vector<Sample> MetricsRegistry::Snapshot() const {
  std::vector<Sample> samples;
  {
    std::lock_guard<std::mutex> lock(mu_);
    samples.reserve(counters_.size() + double_counters_.size() +
                    gauges_.size() + 5 * histograms_.size());
    for (const auto& entry : counters_) {
      samples.push_back(
          {entry.first, static_cast<double>(entry.second->Value())});
    }
    for (const auto& entry : double_counters_) {
      samples.push_back({entry.first, entry.second->Value()});
    }
    for (const auto& entry : gauges_) {
      samples.push_back(
          {entry.first, static_cast<double>(entry.second->Value())});
    }
    for (const auto& entry : histograms_) {
      const Histogram::Totals totals = entry.second->Aggregate();
      samples.push_back({SpliceMetricSuffix(entry.first, "_count"),
                         static_cast<double>(totals.count)});
      samples.push_back({SpliceMetricSuffix(entry.first, "_sum_us"),
                         static_cast<double>(totals.sum_micros)});
      samples.push_back({SpliceMetricSuffix(entry.first, "_p50"),
                         Histogram::Quantile(totals, 0.50)});
      samples.push_back({SpliceMetricSuffix(entry.first, "_p90"),
                         Histogram::Quantile(totals, 0.90)});
      samples.push_back({SpliceMetricSuffix(entry.first, "_p99"),
                         Histogram::Quantile(totals, 0.99)});
    }
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.name < b.name; });
  return samples;
}

namespace {

/// {k=v,k2=v2} -> {k="v",k2="v2"} for the Prometheus exposition. Names
/// are produced by our own instrumentation, so this only has to handle
/// the convention, not arbitrary input.
std::string QuoteLabelValues(const std::string& name) {
  const size_t brace = name.find('{');
  if (brace == std::string::npos || name.back() != '}') return name;
  std::string out = name.substr(0, brace + 1);
  const std::string body = name.substr(brace + 1, name.size() - brace - 2);
  size_t start = 0;
  while (start <= body.size()) {
    size_t comma = body.find(',', start);
    if (comma == std::string::npos) comma = body.size();
    const std::string pair = body.substr(start, comma - start);
    const size_t eq = pair.find('=');
    if (start != 0) out += ',';
    if (eq == std::string::npos) {
      out += pair;
    } else {
      out += pair.substr(0, eq + 1);
      out += '"';
      out += pair.substr(eq + 1);
      out += '"';
    }
    if (comma == body.size()) break;
    start = comma + 1;
  }
  out += '}';
  return out;
}

}  // namespace

std::string MetricsRegistry::RenderPrometheusText() const {
  std::string out;
  for (const Sample& sample : Snapshot()) {
    out += QuoteLabelValues(sample.name);
    out += ' ';
    AppendDouble(&out, sample.value);
    out += '\n';
  }
  return out;
}

bool MetricsRegistry::WriteTextFile(const std::string& path) const {
  const std::string text = RenderPrometheusText();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  const bool closed = std::fclose(file) == 0;
  return written == text.size() && closed;
}

}  // namespace obs
}  // namespace blowfish
