// Loopback serving benchmark: one workload per process.
//
//   loopback_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Untraced (--trace 0): builds the deployment seven times and reports the
// median set-up time, then measures one window of --seconds and reports
// the end-to-end metrics: CPU cost and CPU-clock latency, which the host's
// CPU steal barely moves, plus wall-clock throughput and latency as
// printed diagnostics. Traced (--trace 1): one set-up, an untraced
// window, a traced window of the same length (span recorder on), then the
// layer ladder; reports the per-layer metrics. Both modes run every
// correctness check. The last stdout line is the JSON result.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <thread>

#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "bench.h"
#include "net/protocol.h"

namespace perfbench {
namespace {

using blowfish::BlowfishClient;
using blowfish::BlowfishServer;
using blowfish::Dataset;
using blowfish::EngineHost;
using blowfish::Random;

/// Session budget of every tenant: a power of two far above anything a
/// run spends, so nothing is refused and every budget sum stays exact.
constexpr double kBudget = 1073741824.0;  // 2^30
constexpr size_t kUntracedSetups = 7;
/// Batches per p99 estimate: 10 samples lie beyond each block's p99.
constexpr size_t kMinLatencySamples = 1000;

// The metric sets of BENCHMARK.json: the result line carries exactly one
// of them.
const char* const kEndToEnd[] = {"cpu_us_per_query", "cpu_latency_p50_ms",
                                 "cpu_latency_p99_ms", "ok_share",
                                 "setup_s",           "peak_rss_mb"};
const char* const kPerLayer[] = {
    "net.encode_us_per_query",        "net.decode_us_per_query",
    "net.bytes_per_query",            "net.frames_per_batch",
    "net.client_submit_us",           "net.wire_overhead_us_per_batch",
    "server.host_overhead_us_per_batch", "server.audit_bytes_per_query",
    "engine.admission_us_per_query",  "engine.cache_hit_ratio",
    "engine.scans_in_window",         "engine.create_ms",
    "core.sensitivity_cold_ms",       "mech.execute_us_per_query",
    "util.fork_us",                   "util.laplace_ns_per_draw",
    "data.histogram_ms",              "data.engine_rss_mb",
    "bench.trace_overhead_pct"};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else {
      Die("unknown flag " + key);
    }
  }
  if (a.workload.empty() || a.seconds < 1) {
    Die("usage: loopback_bench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return a;
}

// ---- Set-up -----------------------------------------------------------------

/// CPU time used so far by every thread of this process, in ms. The
/// kernel leaves out time the hypervisor stole from the VM, so this clock
/// advances with the work done, not with the host's load.
double ProcessCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// One set-up's duration on the process CPU clock and on the wall clock.
struct SetupTime {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Builds the deployment and serves each tenant's warm-up batch over the
/// wire; returns how long that took. Tuple copies are made before the
/// clocks start: generating inputs is not the program's cost.
SetupTime BuildDeployment(const Workload& w, const std::string& audit_path,
                          Deployment* d, Tally* tally, Checks* checks) {
  std::vector<std::vector<blowfish::ValueIndex>> tuples;
  for (const TenantSpec& t : w.tenants) tuples.push_back(t.tuples);
  const double cpu_start = ProcessCpuMs();
  const Clock::time_point start = Clock::now();

  d->metrics = std::make_unique<blowfish::obs::MetricsRegistry>();
  d->audit = std::make_unique<blowfish::obs::AuditLog>();
  if (w.audit && !d->audit->Open(audit_path)) Die("open " + audit_path);
  blowfish::EngineHostOptions host_options;
  host_options.num_threads = 2;
  host_options.metrics = d->metrics.get();
  host_options.audit = d->audit.get();
  d->host = std::make_unique<EngineHost>(host_options);
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantSpec& t = w.tenants[i];
    Dataset data = Must(
        Dataset::Create(t.policy.domain_ptr(), std::move(tuples[i])),
        "dataset");
    blowfish::TenantOptions options;
    options.default_session_budget = kBudget;
    options.root_seed = t.root_seed;
    Must(d->host->AddTenant(t.policy_id, t.dataset_id, t.policy,
                            std::move(data), options),
         "add tenant");
  }
  blowfish::ServerOptions server_options;
  server_options.io_threads = 1;
  server_options.metrics = d->metrics.get();
  d->server =
      Must(BlowfishServer::Start(d->host.get(), server_options), "server");
  for (const TenantSpec& t : w.tenants) {
    d->clients.push_back(Must(BlowfishClient::Connect("127.0.0.1",
                                                      d->server->port(),
                                                      t.policy_id,
                                                      t.dataset_id),
                              "connect"));
  }
  std::vector<uint64_t> handles;
  for (const BatchSpec& b : w.warmup) {
    handles.push_back(
        Must(d->clients[b.tenant]->SubmitPipelined(b.text), "warm-up"));
  }
  for (size_t i = 0; i < w.warmup.size(); ++i) {
    const BatchSpec& b = w.warmup[i];
    CheckBatch(w, b, d->clients[b.tenant]->AwaitBatch(handles[i]), tally,
               checks);
  }
  return {(ProcessCpuMs() - cpu_start) / 1e3,
          UsBetween(start, Clock::now()) / 1e6};
}

/// BuildDeployment in a forked child, which reports its set-up time (and
/// whether its warm-up checks passed) through a pipe, tears down, and
/// exits. Must be called while the process has no other threads.
SetupTime SetupInChild(const Workload& w, const std::string& audit_path,
                       Checks* checks) {
  struct Report {
    SetupTime time;
    int ok;
  };
  int fds[2];
  if (::pipe(fds) != 0) Die("pipe");
  std::fflush(stdout);
  const pid_t pid = ::fork();
  if (pid < 0) Die("fork");
  if (pid == 0) {
    ::close(fds[0]);
    Checks child_checks;
    Tally tally;
    tally.charged.assign(w.tenants.size(), 0.0);
    Report report{};
    {
      Deployment d;
      report.time = BuildDeployment(w, audit_path, &d, &tally, &child_checks);
    }
    report.ok = child_checks.ok() ? 1 : 0;
    std::fflush(stdout);
    const bool sent = ::write(fds[1], &report, sizeof(report)) ==
                      static_cast<ssize_t>(sizeof(report));
    ::_exit(sent ? 0 : 1);
  }
  ::close(fds[1]);
  Report report{};
  const bool got = ::read(fds[0], &report, sizeof(report)) ==
                   static_cast<ssize_t>(sizeof(report));
  ::close(fds[0]);
  int status = 0;
  ::waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Die("set-up child failed");
  }
  if (report.ok == 0) checks->Fail("setup_child", "warm-up checks failed");
  return report.time;
}

// ---- STATS deltas -----------------------------------------------------------

struct StatsSnapshot {
  std::map<std::string, double> values;
  /// Size of the STATS reply itself, which the next snapshot counts.
  double reply_frames = 0.0;
  double reply_bytes = 0.0;

  /// Sum of a counter over all its label sets.
  double Sum(const std::string& base) const {
    double total = 0.0;
    for (const auto& [name, value] : values) {
      if (name == base || name.compare(0, base.size() + 1, base + "{") == 0) {
        total += value;
      }
    }
    return total;
  }
};

StatsSnapshot FetchStats(BlowfishClient* client) {
  StatsSnapshot s;
  const auto samples = Must(client->FetchStats(), "STATS");
  s.reply_frames = static_cast<double>(samples.size() + 1);
  s.reply_bytes = static_cast<double>(
      4 + blowfish::EncodeDonePayload(samples.size()).size());
  for (const blowfish::MetricSample& m : samples) {
    s.values[m.name] = m.value;
    s.reply_bytes += static_cast<double>(
        4 + blowfish::EncodeMetricPayload(m.name, m.value).size());
  }
  return s;
}

// ---- Measured window --------------------------------------------------------

struct Window {
  size_t attempted = 0;
  size_t failed = 0;
  size_t ok_in_window = 0;
  size_t batches = 0;
  double seconds = 0.0;
  std::vector<double> latency_ms;
  /// Per batch: process CPU time spent from its dispatch to completion.
  std::vector<double> cpu_latency_ms;
  /// Process CPU time over the window and its drain, in seconds.
  double cpu_s = 0.0;
  std::vector<double> submit_us;
  double bytes_out = 0.0;
  double frames_out = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double scans = 0.0;
  double audit_bytes = 0.0;
  /// Share of the host's CPU time its hypervisor stole during the window.
  double host_steal_pct = 0.0;
};

/// Aggregate CPU time of the host from /proc/stat: (steal, total) ticks.
std::pair<double, double> HostCpuTicks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int field = 0; field < 10 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

double FileBytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(size);
}

/// One batch from dispatch to completion. The connection's thread fills
/// in the submit and await times and the result.
struct Trip {
  BatchSpec batch;
  Clock::time_point dispatched;
  Clock::time_point submit_begin;
  Clock::time_point submit_end;
  Clock::time_point await_begin;
  Clock::time_point done;
  /// ProcessCpuMs() at dispatch and at completion.
  double cpu_dispatched = 0.0;
  double cpu_done = 0.0;
  uint64_t handle = 0;
  blowfish::StatusOr<std::vector<blowfish::QueryResponse>> result =
      blowfish::Status::Internal("not served");
};

/// State shared by the connection threads and the thread that collects
/// their results. A client is single-threaded by design, so each
/// connection's submits and awaits run on that connection's own thread: a
/// batch is timed when its own connection completes it, never behind
/// another connection's batch.
struct Lanes {
  Lanes(const Workload& w, Random* rng, Clock::time_point deadline)
      : w(w), rng(rng), deadline(deadline), inbox(w.tenants.size()) {}

  /// Draws the batch that replaces one finished on `hint` and queues it
  /// for its tenant's connection. Caller holds `mu`.
  void Dispatch(size_t hint) {
    Trip t;
    t.batch = w.next(w, *rng, hint);
    t.dispatched = Clock::now();
    t.cpu_dispatched = ProcessCpuMs();
    inbox[t.batch.tenant].push_back(std::move(t));
    ++outstanding;
    work.notify_all();
  }

  const Workload& w;
  Random* const rng;  // the workload's stream; guarded by mu
  const Clock::time_point deadline;
  std::mutex mu;
  std::condition_variable work;       // an inbox grew, or stop
  std::condition_variable completed;  // `done` grew
  std::vector<std::deque<Trip>> inbox;  // by tenant
  std::deque<Trip> done;
  /// Batches dispatched and not yet taken from `done`.
  size_t outstanding = 0;
  bool stop = false;
};

/// Body of tenant `c`'s connection thread: ships every batch queued for
/// it, then awaits its oldest batch in flight (a tenant's batches
/// complete in order). Before the deadline each completion draws its
/// replacement right here, so a replacement for this same connection
/// ships before the next await and the tenant's pipeline stays full.
void DriveConnection(BlowfishClient* client, size_t c, Lanes* lanes) {
  std::deque<Trip> in_flight;
  auto finish = [&](Trip t) {
    t.cpu_done = ProcessCpuMs();
    std::lock_guard<std::mutex> lock(lanes->mu);
    if (t.done <= lanes->deadline) lanes->Dispatch(c);
    lanes->done.push_back(std::move(t));
    lanes->completed.notify_one();
  };
  while (true) {
    std::deque<Trip> fresh;
    {
      std::unique_lock<std::mutex> lock(lanes->mu);
      lanes->work.wait(lock, [&] {
        return !in_flight.empty() || !lanes->inbox[c].empty() || lanes->stop;
      });
      if (in_flight.empty() && lanes->inbox[c].empty()) return;  // stop
      fresh.swap(lanes->inbox[c]);
    }
    for (Trip& t : fresh) {
      t.submit_begin = Clock::now();
      auto handle = client->SubmitPipelined(t.batch.text);
      t.submit_end = Clock::now();
      if (handle.ok()) {
        t.handle = *handle;
        in_flight.push_back(std::move(t));
      } else {
        t.await_begin = t.done = t.submit_end;
        t.result = handle.status();
        finish(std::move(t));
      }
    }
    if (in_flight.empty()) continue;
    Trip t = std::move(in_flight.front());
    in_flight.pop_front();
    t.await_begin = Clock::now();
    t.result = client->AwaitBatch(t.handle);
    t.done = Clock::now();
    finish(std::move(t));
  }
}

/// Drives the workload for `seconds`, closed loop: `in_flight` batches
/// are dispatched at the start, and each completion before the deadline
/// dispatches one replacement, to the tenant the workload picks given the
/// one that just finished. The calling thread collects the completions:
/// it records latencies and spans and checks every response. A batch's
/// latency runs from its dispatch until its AwaitBatch returns, so time a
/// batch waits for its connection thread counts against the program.
/// Batches dispatched before the deadline are drained after it; their
/// latencies count, their queries count toward throughput only if they
/// completed in the window.
Window RunWindow(const Workload& w, Deployment* d, Random* rng,
                 double seconds, const std::string& audit_path,
                 SpanRecorder* spans, Tally* tally, Checks* checks) {
  Window win;
  win.seconds = seconds;
  const StatsSnapshot before = FetchStats(d->clients[0].get());
  const double audit_before = FileBytes(audit_path);
  const auto cpu_before = HostCpuTicks();
  const double process_before = ProcessCpuMs();

  const Clock::time_point start = Clock::now();
  Lanes lanes(w, rng,
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(seconds)));
  {
    std::lock_guard<std::mutex> lock(lanes.mu);
    for (size_t i = 0; i < w.in_flight; ++i) {
      lanes.Dispatch(i % w.tenants.size());
    }
  }
  std::vector<std::thread> threads;
  for (size_t c = 0; c < w.tenants.size(); ++c) {
    threads.emplace_back(DriveConnection, d->clients[c].get(), c, &lanes);
  }
  bool draining = true;
  while (draining) {
    Trip t;
    {
      std::unique_lock<std::mutex> lock(lanes.mu);
      lanes.completed.wait(lock, [&] { return !lanes.done.empty(); });
      t = std::move(lanes.done.front());
      lanes.done.pop_front();
      draining = --lanes.outstanding > 0;
    }
    ++win.batches;
    win.attempted += t.batch.queries.size();
    win.latency_ms.push_back(UsBetween(t.dispatched, t.done) / 1e3);
    win.cpu_latency_ms.push_back(t.cpu_done - t.cpu_dispatched);
    win.submit_us.push_back(UsBetween(t.submit_begin, t.submit_end));
    const size_t ok = CheckBatch(w, t.batch, t.result, tally, checks);
    win.failed += t.batch.queries.size() - ok;
    if (t.done <= lanes.deadline) win.ok_in_window += ok;
    if (spans != nullptr) {
      const uint64_t root = spans->NewId();
      spans->Record(0, root, "client_submit", t.submit_begin, t.submit_end);
      spans->Record(0, root, "client_await", t.await_begin, t.done);
      spans->Record(root, 0, "batch", t.dispatched, t.done);
    }
  }
  {
    std::lock_guard<std::mutex> lock(lanes.mu);
    lanes.stop = true;
    lanes.work.notify_all();
  }
  for (std::thread& t : threads) t.join();
  win.cpu_s = (ProcessCpuMs() - process_before) / 1e3;

  const StatsSnapshot after = FetchStats(d->clients[0].get());
  auto delta = [&](const char* name) {
    return after.Sum(name) - before.Sum(name);
  };
  win.bytes_out = delta("net_bytes_out_total") - before.reply_bytes;
  win.frames_out = delta("net_frames_out_total") - before.reply_frames;
  win.cache_hits = delta("sensitivity_cache_hits_total");
  win.cache_misses = delta("sensitivity_cache_misses_total");
  win.scans = delta("engine_scans_total");
  win.audit_bytes = FileBytes(audit_path) - audit_before;
  const auto cpu_after = HostCpuTicks();
  win.host_steal_pct = 100.0 * (cpu_after.first - cpu_before.first) /
                       std::max(1.0, cpu_after.second - cpu_before.second);
  const double served = static_cast<double>(win.attempted - win.failed);
  if (delta("budget_charges_total") != served) {
    checks->Fail("stats_charges",
                 "budget_charges_total grew by " +
                     std::to_string(delta("budget_charges_total")) + ", " +
                     std::to_string(served) + " queries served");
  }
  return win;
}

/// Tail latency that one host stall cannot swing: the median, over
/// consecutive blocks of kMinLatencySamples batches in completion order,
/// of each block's p99 (the whole window's p99 if it holds fewer).
double BlockP99(const std::vector<double>& latency_ms) {
  if (latency_ms.size() < kMinLatencySamples) {
    return Percentile(latency_ms, 0.99);
  }
  std::vector<double> blocks;
  for (size_t i = 0; i + kMinLatencySamples <= latency_ms.size();
       i += kMinLatencySamples) {
    blocks.push_back(Percentile(
        std::vector<double>(latency_ms.begin() + i,
                            latency_ms.begin() + i + kMinLatencySamples),
        0.99));
  }
  return Median(blocks);
}

/// Process CPU time per OK query over the window and its drain.
double CpuUsPerQuery(const Window& win) {
  return win.cpu_s * 1e6 /
         static_cast<double>(std::max<size_t>(win.attempted - win.failed, 1));
}

// ---- Post-window checks -----------------------------------------------------

/// Receipts vs the HEALTH budget gauge, per tenant, exactly.
void ReconcileBudgets(const Workload& w, Deployment* d, const Tally& tally,
                      Checks* checks) {
  size_t matched = 0;
  const auto samples = Must(d->clients[0]->FetchHealth(), "HEALTH");
  for (size_t i = 0; i < w.tenants.size(); ++i) {
    const TenantSpec& t = w.tenants[i];
    const std::string name = "health_budget_remaining{tenant=" + t.policy_id +
                             "/" + t.dataset_id + ",session=default}";
    bool found = false;
    for (const blowfish::MetricSample& s : samples) {
      if (s.name != name) continue;
      found = true;
      const double spent = kBudget - s.value;
      if (spent == tally.charged[i]) {
        ++matched;
      } else {
        checks->Fail("budget_reconciliation",
                     name + ": HEALTH spent " + std::to_string(spent) +
                         ", receipts charged " +
                         std::to_string(tally.charged[i]));
      }
    }
    if (!found) checks->Fail("budget_reconciliation", "no gauge " + name);
  }
  if (matched == w.tenants.size()) {
    checks->Report("budget_reconciliation", true,
                   "receipts match HEALTH spent for " +
                       std::to_string(matched) + " tenants");
  }
}

/// A fixed sequential batch sequence served over the wire to one fresh
/// tenant and in process (EngineHost::ServeBatch) to its twin — same
/// policy, data, and seed — must match bit for bit. One pair per distinct
/// policy of the workload.
void VerifyWireIdentity(const Workload& w, Deployment* d, uint64_t seed,
                        Checks* checks) {
  Random rng(Random(seed).Fork(4));
  size_t batches = 0;
  size_t identical = 0;
  for (size_t g = 0; g < w.tenants.size(); ++g) {
    if (w.tenants[g].policy_group != g) continue;
    const TenantSpec& rep = w.tenants[g];
    const std::string dataset = "g" + std::to_string(g);
    std::vector<blowfish::ValueIndex> tuples(1u << 14);
    for (auto& v : tuples) {
      v = static_cast<blowfish::ValueIndex>(rng.UniformInt(
          0, static_cast<int64_t>(rep.policy.domain().size()) - 1));
    }
    Dataset data =
        Must(Dataset::Create(rep.policy.domain_ptr(), tuples), "dataset");
    blowfish::TenantOptions options;
    options.default_session_budget = kBudget;
    options.root_seed = blowfish::SplitMix64(seed ^ (0x400 + g));
    Must(d->host->AddTenant("verify_wire", dataset, rep.policy, data, options),
         "verify tenant");
    Must(d->host->AddTenant("verify_local", dataset, rep.policy, data,
                            options),
         "verify tenant");
    auto client = Must(BlowfishClient::Connect("127.0.0.1", d->server->port(),
                                               "verify_wire", dataset),
                       "connect verify");
    std::vector<BatchSpec> sequence = {w.warmup[g]};
    while (sequence.size() < 9) {
      BatchSpec b = w.next(w, rng, g);
      if (w.tenants[b.tenant].policy_group == g) sequence.push_back(b);
    }
    for (const BatchSpec& b : sequence) {
      auto handle = Must(client->SubmitPipelined(b.text), "verify submit");
      auto wire = client->AwaitBatch(handle);
      auto local = d->host->ServeBatch(
          "verify_local", dataset,
          Must(EngineHost::ParseBatchText(b.text), "parse"));
      std::string why;
      if (!wire.ok() || !local.ok()) {
        checks->Fail("wire_bit_identity", "batch failed");
      } else if (!Identical(*wire, *local, &why)) {
        checks->Fail("wire_bit_identity", rep.policy_id + ": " + why);
      } else {
        ++identical;
      }
      ++batches;
    }
    (void)client->Bye();
  }
  if (identical == batches) {
    checks->Report("wire_bit_identity", true,
                   std::to_string(batches) + " batches identical");
  }
}

// ---- Result line ------------------------------------------------------------

void PrintResult(size_t attempted, size_t failed, const Results& results,
                 bool trace, Checks* checks) {
  std::string metrics;
  auto emit = [&](const char* name) {
    double value = 0.0;
    std::string unit;
    if (!results.Find(name, &value, &unit) || !std::isfinite(value)) {
      checks->Fail("metrics_complete", std::string("no value for ") + name);
      value = 0.0;
      unit = "none";
    }
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name, value, unit.c_str());
    metrics += buf;
  };
  if (trace) {
    for (const char* name : kPerLayer) emit(name);
  } else {
    for (const char* name : kEndToEnd) emit(name);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      checks->ok() ? "true" : "false", attempted, failed,
      metrics.c_str());
}

int Run(const Args& args) {
  Workload w = Must(MakeWorkload(args.workload, args.seed), "workload");
  const std::string out_dir = ".bench_out";
  const std::string run_dir = out_dir + "/run_" + w.name + "_" +
                              std::to_string(::getpid());
  std::filesystem::create_directories(run_dir);
  const std::string audit_path = run_dir + "/audit.jsonl";
  Checks checks;
  Results results;

  // Set-up: the median of several fresh builds. All but the last run in
  // forked children (the process is still single-threaded here), so they
  // leave no freed memory behind to blur this process's peak RSS; the
  // last one serves the window.
  std::vector<SetupTime> setups;
  for (size_t k = 1; !args.trace && k < kUntracedSetups; ++k) {
    setups.push_back(SetupInChild(w, audit_path, &checks));
  }
  auto d = std::make_unique<Deployment>();
  Tally tally;
  tally.charged.assign(w.tenants.size(), 0.0);
  setups.push_back(BuildDeployment(w, audit_path, d.get(), &tally, &checks));

  Random rng(Random(args.seed).Fork(5));
  // The traced run splits its time: an untraced half, then a traced half.
  const double window_s = args.trace ? args.seconds / 2.0 : args.seconds;
  Window win = RunWindow(w, d.get(), &rng, window_s, audit_path, nullptr,
                         &tally, &checks);
  size_t attempted = win.attempted;
  size_t failed = win.failed;

  const Window* traced_win = &win;
  Window traced;
  SpanRecorder spans;
  if (args.trace) {
    traced = RunWindow(w, d.get(), &rng, window_s, audit_path, &spans, &tally,
                       &checks);
    traced_win = &traced;
    attempted += traced.attempted;
    failed += traced.failed;
  }

  // End-to-end metrics of the untraced window. The wall-clock figures
  // are printed but not in the result line: on a shared VM they follow
  // the host's steal (METRICS.md, "Why CPU time").
  const double cpu_us_per_query = CpuUsPerQuery(win);
  results.Add("cpu_us_per_query", cpu_us_per_query, "us");
  results.Add("cpu_latency_p50_ms", Percentile(win.cpu_latency_ms, 0.5),
              "cpu-ms");
  results.Add("cpu_latency_p99_ms", BlockP99(win.cpu_latency_ms), "cpu-ms");
  PrintMetric("throughput_qps",
              static_cast<double>(win.ok_in_window) / win.seconds,
              "queries/s");
  PrintMetric("latency_p50_ms", Percentile(win.latency_ms, 0.5), "ms");
  PrintMetric("latency_p99_ms", BlockP99(win.latency_ms), "ms");
  PrintMetric("latency_p99_window_ms", Percentile(win.latency_ms, 0.99), "ms");
  PrintMetric("host_steal_pct", win.host_steal_pct, "%");
  results.Add("ok_share",
              static_cast<double>(win.attempted - win.failed) /
                  static_cast<double>(std::max<size_t>(win.attempted, 1)),
              "ratio");
  std::vector<double> setup_cpu_s, setup_wall_s;
  for (const SetupTime& t : setups) {
    setup_cpu_s.push_back(t.cpu_s);
    setup_wall_s.push_back(t.wall_s);
  }
  results.Add("setup_s", Median(setup_cpu_s), "s");
  PrintMetric("setup_wall_s", Median(setup_wall_s), "s");
  PrintMetric("failed_share",
              static_cast<double>(win.failed) /
                  static_cast<double>(std::max<size_t>(win.attempted, 1)),
              "ratio");
  PrintMetric("latency_samples", static_cast<double>(win.batches), "batches");
  if (!args.trace) {
    checks.Report("latency_samples", win.batches >= kMinLatencySamples,
                  std::to_string(win.batches) + " batches (need " +
                      std::to_string(kMinLatencySamples) + ")");
  }

  // Per-layer metrics measured by the traced window.
  const Window& tw = *traced_win;
  const double tw_queries = static_cast<double>(tw.attempted);
  results.Add("net.bytes_per_query", tw.bytes_out / tw_queries, "bytes");
  results.Add("net.frames_per_batch",
              tw.frames_out / static_cast<double>(tw.batches), "frames");
  results.Add("net.client_submit_us", Median(tw.submit_us), "us");
  results.Add("server.audit_bytes_per_query", tw.audit_bytes / tw_queries,
              "bytes");
  results.Add("engine.cache_hit_ratio",
              tw.cache_hits / std::max(1.0, tw.cache_hits + tw.cache_misses),
              "ratio");
  results.Add("engine.scans_in_window", tw.scans, "count");
  if (args.trace) {
    results.Add("bench.trace_overhead_pct",
                (CpuUsPerQuery(tw) / cpu_us_per_query - 1.0) * 100.0, "%");
  }

  ReconcileBudgets(w, d.get(), tally, &checks);
  const double ratio = tally.sq_error / std::max(tally.predicted_error, 1e-300);
  PrintMetric("utility_mse_ratio", ratio, "ratio");
  checks.Report("utility_band", tally.cells > 0 && ratio >= 0.9 && ratio <= 1.1,
                "pooled per-cell MSE / LaplaceComponentError = " +
                    std::to_string(ratio) + " over " +
                    std::to_string(tally.cells) + " released cells");
  VerifyWireIdentity(w, d.get(), args.seed, &checks);

  if (args.trace) {
    RunLadder(w, d.get(), args.seed, &spans, &results, &checks);
  }
  d.reset();
  std::error_code ec;
  std::filesystem::remove_all(run_dir, ec);
  if (args.trace) {
    const std::string path = out_dir + "/spans_" + w.name + ".jsonl";
    checks.Report("span_file", spans.WriteJsonl(path),
                  std::to_string(spans.size()) + " spans -> " + path);
  }
  results.Add("peak_rss_mb", ProcStatusMiB("VmHWM"), "MiB");
  PrintResult(attempted, failed, results, args.trace, &checks);
  return checks.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
