// depchaos benchmark: one workload per process, measured from
// outside the library through its public API only.
//
//   perf_bench --workload <pynamic_launch|service_hot|service_churn>
//               --seed <n> --seconds <s> --trace <0|1> [--trace-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with no instrumentation.
// --trace 1 measures the per-layer metrics: an untraced and a traced pass
// of the same seeded stream (their ops/s ratio is the tracing overhead),
// then a ladder that replays the stream one rung at a time and costs each
// layer on its own. Spans go to <trace-dir>/<workload>-seed<n>.json.
//
// Every run checks the program's outputs against an oracle (see each
// workload); the last stdout line is one JSON object with the keys
// correct / attempted / failed / metrics, and a failed check makes the
// exit code 1.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <latch>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "depchaos/core/world.hpp"
#include "depchaos/svc/session_pool.hpp"
#include "depchaos/svc/wire.hpp"
#include "stats.hpp"
#include "stream.hpp"
#include "trace.hpp"

namespace {

using namespace depchaos;
using perf::Clock;
using perf::Request;
using perf::Verb;

// ---- workload constants ----------------------------------------------------
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 45;
// Both service workloads: 1 closed-loop connection against a 1-worker
// pool. A fixed worker count (never hardware_concurrency) keeps the
// measured system the same on every host, and one request chain at a
// time (client, server IO thread, pool worker) leaves the shared host's
// other cores to its other tenants; two connections on two workers queue
// ops behind each other, so their p99 measures the scheduler.
constexpr std::size_t kConnections = 1;
constexpr std::size_t kPoolThreads = 1;
const std::size_t kDebianBinaries = workload::InstalledSystemConfig{}.num_binaries;
constexpr std::size_t kHotPopular = 256;
constexpr double kHotZipfS = 1.0;
constexpr std::size_t kHotClientsPerConnection = 64;
constexpr std::size_t kChurnClientsPerConnection = 16;
// Ladder replay length per connection, and sample counts of the rung
// micro-measurements.
constexpr std::size_t kLadderRequestsPerConnection = 512;
constexpr std::size_t kLadderExes = 48;
constexpr std::size_t kLadderWrapExes = 16;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t payload_hash(const std::string& bytes) {
  return std::hash<std::string>{}(bytes);
}

// A load report's canonical encoding ends with its SyscallStats, whose
// last field is sim_time_s (f64), followed by the probe log's u32 count
// (0: probes are not recorded). The oracle reads sim_time_s there without
// decoding the whole report, and checks that layout on every reference.
constexpr std::size_t kSimTimeFromEnd = 12;

double load_sim_time(const std::string& payload) {
  double value = std::nan("");
  if (payload.size() >= kSimTimeFromEnd) {
    std::memcpy(&value, payload.data() + payload.size() - kSimTimeFromEnd, sizeof value);
  }
  return value;
}

std::string with_load_sim_time(std::string payload, double value) {
  std::memcpy(payload.data() + payload.size() - kSimTimeFromEnd, &value, sizeof value);
  return payload;
}

/// Rounding-level agreement of two simulated times (see replay_oracle).
bool sim_time_close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

// ---- result ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::vector<std::pair<std::string, std::string>> notes;  // trace metadata

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    if (failures.size() < 16) failures.push_back(what);
  }
  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    std::fprintf(stderr, "  %-28s %s\n", key.c_str(), value.c_str());
    notes.emplace_back(std::move(key), std::move(value));
  }
};

std::string fmt(double value, int precision = 1) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", precision, value);
  return buffer;
}

void print_result(Outcome& out) {
  for (auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.check(false, "metric " + m.name + " is finite");
      m.value = 0;
    }
  }
  for (const auto& f : out.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---- measured loops ----------------------------------------------------------

/// Pins the calling thread, and every thread it starts while pinned, to
/// the CPU it runs on; the destructor restores the previous mask. One
/// closed-loop connection has one runnable thread at a time, so the
/// service's client, IO and worker threads lose no parallelism on one
/// CPU, and each hand-off between them becomes a local context switch
/// instead of a wake-up of another (possibly idle, possibly preempted)
/// virtual CPU, which on a shared host is where most latency noise comes
/// from.
class CpuPin {
 public:
  CpuPin() {
    const int cpu = sched_getcpu();
    if (cpu < 0 || sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
    if (pinned_) std::fprintf(stderr, "  pinned to cpu %d\n", cpu);
  }
  ~CpuPin() {
    if (pinned_) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuPin(const CpuPin&) = delete;
  CpuPin& operator=(const CpuPin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// One closed-loop measurement: every op's latency plus its accounting.
struct Timed {
  std::vector<double> latency_us;  // successful ops only
  std::vector<double> done_s;      // their completion, seconds from the start
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // errors plus refusals (Overloaded)
  double wall_s = 0;
  double rss_mb = 0;  // process peak RSS when the clock stopped

  double ops_per_s() const {
    return wall_s > 0 ? static_cast<double>(attempted - failed) / wall_s : 0;
  }
  double p50() const { return perf::median(latency_us); }
};

// The run is cut into kWindows equal windows by completion time; ops/s,
// p50 and p99 are each the median over the windows of that window's
// figure, so a host stall (this runs on shared machines) that hits a few
// windows moves none of them. Runs with fewer than kMinWindowOps ops per
// window (pynamic_launch holds ~20 cycles) are one window.
constexpr std::size_t kWindows = 10;
constexpr std::size_t kMinWindowOps = 1000;

struct Summary {
  double ops_per_s = 0;
  double p50_us = 0;
  double p99_us = 0;
  std::size_t windows = 0;
  double tail_q = 0;  // percentile reported as p99 (see below)
};

/// p99 needs ten samples beyond it; a window with fewer than 1000 ops
/// reports instead the highest percentile that has them (perf::
/// reportable_tail), and the median when even that is missing.
double tail_percentile(const std::vector<double>& sorted, double& q) {
  q = std::min(99.0, perf::reportable_tail(sorted.size()).value_or(50.0));
  return perf::percentile_sorted(sorted, q);
}

Summary summarize(const Timed& timed) {
  Summary s;
  const std::size_t n = timed.latency_us.size();
  s.windows = std::clamp<std::size_t>(n / kMinWindowOps, 1, kWindows);
  const double width = timed.wall_s / static_cast<double>(s.windows);
  std::vector<std::vector<double>> by_window(s.windows);
  for (std::size_t i = 0; i < n; ++i) {
    const auto w = static_cast<std::size_t>(timed.done_s[i] / width);
    by_window[std::min(w, s.windows - 1)].push_back(timed.latency_us[i]);
  }
  std::vector<double> rate, p50, p99;
  std::string line;
  for (auto& lat : by_window) {
    rate.push_back(static_cast<double>(lat.size()) / width);
    line += " " + fmt(rate.back(), 0);
    if (lat.empty()) continue;  // a window with no completions has no latency
    std::sort(lat.begin(), lat.end());
    p50.push_back(perf::percentile_sorted(lat, 50));
    p99.push_back(tail_percentile(lat, s.tail_q));
    line += "/" + fmt(p50.back(), 0) + "/" + fmt(p99.back(), 0);
  }
  if (s.windows > 1) std::fprintf(stderr, "  windows (ops/s / p50 / p99 us):%s\n", line.c_str());
  s.ops_per_s = perf::median(rate);
  s.p50_us = perf::median(p50);
  s.p99_us = perf::median(p99);
  return s;
}

void end_to_end_metrics(Outcome& out, const Timed& timed,
                        const std::vector<double>& setups) {
  const std::size_t n = timed.latency_us.size();
  out.attempted = timed.attempted;
  out.failed = timed.failed;
  if (n <= 64) {
    std::string all;
    for (const double v : timed.latency_us) all += " " + fmt(v / 1e3, 1);
    std::fprintf(stderr, "  op latencies (ms, in order):%s\n", all.c_str());
  }
  std::string setup_ms;
  for (const double v : setups) setup_ms += " " + fmt(v * 1e3, 1);
  std::fprintf(stderr, "  set-ups (ms, in order):%s\n", setup_ms.c_str());
  const Summary s = summarize(timed);
  std::fprintf(stderr, "  %zu samples in %zu window(s); latency_p99_us is p%s of each window\n",
               n, s.windows, fmt(s.tail_q, 1).c_str());
  out.metric("setup_s", perf::median(setups), "s");
  out.metric("ops_per_s", s.ops_per_s, "1/s");
  out.metric("latency_p50_us", s.p50_us, "us");
  out.metric("latency_p99_us", s.p99_us, "us");
  out.metric("success_rate",
             timed.attempted ? static_cast<double>(timed.attempted - timed.failed) /
                                   static_cast<double>(timed.attempted)
                             : 0,
             "ratio");
  out.metric("peak_rss_mb", timed.rss_mb, "MB");
}

/// RAII span: records nothing when `log` is null (the untraced path).
class Scope {
 public:
  Scope(perf::SpanLog* log, const char* name, std::uint64_t request,
        int parent = -1)
      : log_(log), id_(log ? log->open(name, request, parent) : -1) {}
  ~Scope() { end(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void end() {
    if (log_ && !ended_) log_->close(id_);
    ended_ = true;
  }
  int id() const { return id_; }

 private:
  perf::SpanLog* log_;
  int id_;
  bool ended_ = false;
};

// ---- probe paths: the interner / stat rungs --------------------------------

/// Every candidate path the loader probes for `exes`, taken from the
/// LD_DEBUG-style probe log of a record_probes twin world.
std::vector<std::string> probe_paths(core::WorldBuilder builder,
                                     const std::vector<std::string>& exes) {
  loader::SearchConfig search;
  search.record_probes = true;
  auto session = builder.search(search).build();
  std::vector<std::string> paths;
  std::set<std::string> seen;
  for (const auto& exe : exes) {
    for (const auto& line : session.load(exe).probe_log) {
      // "trying <path> ... <outcome>"
      const auto start = line.find(' ');
      const auto stop = line.find(" ...");
      if (start == std::string::npos || stop == std::string::npos) continue;
      std::string path = line.substr(start + 1, stop - start - 1);
      if (seen.insert(path).second) paths.push_back(std::move(path));
    }
  }
  return paths;
}

/// support.intern_ns and vfs.stat_id_{cold,warm}_ns over `paths`.
void vfs_rungs(Outcome& out, const core::Session& base,
               const std::vector<std::string>& paths) {
  auto fork = base.fork_sealed();
  auto& fs = fork.fs();
  std::vector<support::PathId> ids;
  ids.reserve(paths.size());
  for (const auto& p : paths) ids.push_back(fs.intern(p));
  // Re-interning paths already in the table: the lookup the loader does
  // for every candidate it composes.
  std::vector<double> intern_ns;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    for (const auto& p : paths) fs.intern(p);
    intern_ns.push_back(us_between(t0, Clock::now()) * 1e3 /
                        static_cast<double>(paths.size()));
  }
  std::size_t found = 0;
  const auto c0 = Clock::now();
  for (const auto id : ids) found += fs.stat(id).has_value();
  const double cold = us_between(c0, Clock::now()) * 1e3 / static_cast<double>(ids.size());
  std::vector<double> warm;
  for (int pass = 0; pass < 3; ++pass) {
    const auto w0 = Clock::now();
    for (const auto id : ids) fs.stat(id);
    warm.push_back(us_between(w0, Clock::now()) * 1e3 / static_cast<double>(ids.size()));
  }
  out.metric("support.intern_ns", perf::median(intern_ns), "ns");
  out.metric("vfs.stat_id_warm_ns", perf::median(warm), "ns");
  out.metric("vfs.stat_id_cold_ns", cold, "ns");
  out.note("vfs.probe_paths", std::to_string(paths.size()) + " paths, " +
                                  std::to_string(found) + " exist");
}

/// core.fork_sealed_ns: forks are kept alive while timing so teardown is
/// not part of the figure.
void fork_rung(Outcome& out, const core::Session& base, std::size_t count) {
  std::vector<core::Session> forks;
  forks.reserve(count);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) forks.push_back(base.fork_sealed());
  out.metric("core.fork_sealed_ns",
             us_between(t0, Clock::now()) * 1e3 / static_cast<double>(count), "ns");
}

/// loader.first_load_us / warm_load_us / ns_per_probe: each exe is loaded
/// on a fresh fork, then again on that fork; medians over `exes`.
void loader_rungs(Outcome& out, const core::Session& base,
                  const std::vector<std::string>& exes) {
  std::vector<double> first, warm, per_probe;
  for (const auto& exe : exes) {
    auto fork = base.fork_sealed();
    const auto f0 = Clock::now();
    const auto report = fork.load(exe);
    first.push_back(us_between(f0, Clock::now()));
    per_probe.push_back(first.back() * 1e3 / static_cast<double>(report.stats.metadata_calls()));
    const auto w0 = Clock::now();
    fork.load(exe);
    warm.push_back(us_between(w0, Clock::now()));
  }
  out.metric("loader.first_load_us", perf::median(first), "us");
  out.metric("loader.warm_load_us", perf::median(warm), "us");
  out.metric("loader.ns_per_probe", perf::median(per_probe), "ns");
}

/// svc.submit_hit_us / svc.submit_miss_us on an in-process twin pool: the
/// first Load of an exe misses the memo, the same Load from another
/// pristine client hits it.
void submit_rungs(Outcome& out, svc::SessionPool& pool,
                  const std::vector<std::string>& exes, std::size_t hits_per_exe) {
  std::vector<double> hit, miss;
  svc::ClientId client = 1u << 20;
  for (const auto& exe : exes) {
    const auto m0 = Clock::now();
    pool.submit_load_shared(client++, exe).get();
    miss.push_back(us_between(m0, Clock::now()));
    for (std::size_t i = 0; i < hits_per_exe; ++i) {
      const auto h0 = Clock::now();
      pool.submit_load_shared(client++, exe).get();
      hit.push_back(us_between(h0, Clock::now()));
    }
  }
  out.check(pool.stats().memo_hits == hit.size(),
            "twin pool: every repeated pristine Load is a memo hit");
  out.metric("svc.submit_hit_us", perf::median(hit), "us");
  out.metric("svc.submit_miss_us", perf::median(miss), "us");
}

void pool_metrics(Outcome& out, const svc::PoolStats& s) {
  const auto& load = s.latency[static_cast<std::size_t>(svc::RequestKind::Load)];
  const double lookups = static_cast<double>(s.memo_hits + s.memo_misses);
  out.metric("svc.memo_hit_ratio", lookups > 0 ? static_cast<double>(s.memo_hits) / lookups : 0,
             "ratio");
  out.metric("svc.load_p50_us", load.p50_us, "us");
  out.metric("svc.load_p99_us", load.p99_us, "us");
  out.metric("svc.drain_batch_p50", s.drain_batch.p50, "count");
  out.metric("svc.pool_steals", static_cast<double>(s.pool_steals), "count");
  out.metric("svc.rejected", static_cast<double>(s.rejected), "count");
}

void wire_stat_metrics(Outcome& out, const svc::WireStats& w) {
  out.metric("wire.bytes_per_op",
             w.frames_in ? static_cast<double>(w.bytes_in + w.bytes_out) /
                               static_cast<double>(w.frames_in)
                         : 0,
             "B");
  out.metric("wire.decode_errors", static_cast<double>(w.decode_errors), "count");
  out.metric("wire.timeouts", static_cast<double>(w.timeouts), "count");
}

svc::PoolConfig pool_config() {
  svc::PoolConfig config;
  config.threads = kPoolThreads;
  // No idle eviction: an evicted fork comes back with a cold attribute
  // cache, which would make a client's sim_time_s depend on timing and
  // its payloads impossible to check against a replay.
  config.idle_evict_cycles = 0;
  return config;
}

void trace_metrics(Outcome& out, double e2e_p50_us, double rung_sum_p50_us,
                   double untraced_ops, double traced_ops,
                   const std::string& unmeasured) {
  const double residual = 100.0 * (e2e_p50_us - rung_sum_p50_us) / e2e_p50_us;
  out.metric("trace.residual_pct", residual, "%");
  out.metric("trace.overhead_pct", 100.0 * (untraced_ops - traced_ops) / untraced_ops, "%");
  out.note("trace.e2e_p50_us", fmt(e2e_p50_us, 2));
  out.note("trace.rung_sum_p50_us", fmt(rung_sum_p50_us, 2));
  out.note("trace.unmeasured", unmeasured + " (" + fmt(residual, 1) + "% of e2e p50)");
}

bool write_trace(const std::string& dir, const std::string& workload,
                 std::uint64_t seed, const std::vector<const perf::SpanLog*>& logs,
                 const Outcome& out) {
  if (dir.empty()) return true;
  const std::string path = dir + "/" + workload + "-seed" + std::to_string(seed) + ".json";
  auto notes = out.notes;
  for (const auto& m : out.metrics) notes.emplace_back(m.name, fmt(m.value, 4) + " " + m.unit);
  const bool ok = perf::write_chrome_trace(path, logs, notes);
  std::fprintf(stderr, "  trace written to %s\n", path.c_str());
  return ok;
}

// ==== pynamic_launch ==========================================================
//
// The paper's Fig 6 / §V experiment, single-threaded and in-process: one
// op is a launch cycle on a fresh fork of the 900-module Pynamic world on
// NFS — load unwrapped, shrinkwrap, load wrapped, verify, tear down.

struct PynamicWorld {
  core::Session base;
  std::size_t deps = 0;
  std::string exe;
};

core::WorldBuilder pynamic_builder(std::uint64_t seed) {
  workload::PynamicConfig config;
  config.seed = perf::derive_seed(seed, 0x10);
  core::WorldBuilder builder;
  builder.pynamic(config).nfs();
  return builder;
}

PynamicWorld make_pynamic(std::uint64_t seed) {
  auto builder = pynamic_builder(seed);
  const std::size_t deps = builder.pynamic_info()->module_paths.size();
  std::string exe = builder.default_exe();
  PynamicWorld world{builder.build(), deps, std::move(exe)};
  world.base.seal();
  return world;
}

struct CycleReports {
  loader::LoadReport unwrapped;
  shrinkwrap::WrapReport wrap;
  loader::LoadReport wrapped;
  shrinkwrap::VerifyReport verify;
  vfs::SyscallStats fork_stats;  // every call the cycle's fork made
};

CycleReports launch_cycle(const core::Session& base, perf::SpanLog* log,
                          std::uint64_t request) {
  CycleReports r;
  Scope cycle(log, "pynamic.cycle", request);
  std::optional<core::Session> fork;
  {
    Scope s(log, "core.fork_sealed", request, cycle.id());
    fork.emplace(base.fork_sealed());
  }
  {
    Scope s(log, "loader.load_unwrapped", request, cycle.id());
    r.unwrapped = fork->load();
  }
  {
    Scope s(log, "shrinkwrap.wrap", request, cycle.id());
    r.wrap = fork->shrinkwrap();
  }
  {
    Scope s(log, "shrinkwrap.wrapped_load", request, cycle.id());
    r.wrapped = fork->load();
  }
  {
    Scope s(log, "shrinkwrap.verify", request, cycle.id());
    r.verify = fork->verify();
  }
  r.fork_stats = fork->fs().stats();
  {
    Scope s(log, "core.fork_teardown", request, cycle.id());
    fork.reset();
  }
  return r;
}

std::string cycle_digest(const CycleReports& r) {
  char ratio[64];
  std::snprintf(ratio, sizeof(ratio), "%.17g",
                r.unwrapped.stats.sim_time_s / r.wrapped.stats.sim_time_s);
  return svc::encode_load_report(r.unwrapped) + '\n' +
         svc::encode_wrap_report(r.wrap) + '\n' +
         svc::encode_load_report(r.wrapped) + '\n' +
         (r.verify.ok ? "verified " : "unverified ") + ratio;
}

/// Runs launch cycles for `seconds` (at least one), checking each against
/// the deps+1 / verify / digest oracles.
Timed pynamic_loop(Outcome& out, const PynamicWorld& world, double seconds,
                   perf::SpanLog* log, std::vector<CycleReports>* keep) {
  Timed timed;
  std::string digest0;
  const auto start = Clock::now();
  do {
    const std::uint64_t request = timed.attempted++;
    try {
      const auto t0 = Clock::now();
      CycleReports r = launch_cycle(world.base, log, request);
      const auto t1 = Clock::now();
      timed.latency_us.push_back(us_between(t0, t1));
      timed.done_s.push_back(seconds_between(start, t1));
      const std::string tag = "pynamic cycle " + std::to_string(request) + ": ";
      out.check(r.unwrapped.success && r.wrapped.success && r.wrap.ok(),
                tag + "loads and shrinkwrap succeed");
      out.check(r.wrapped.stats.metadata_calls() == world.deps + 1,
                tag + "wrapped load makes deps+1 = " + std::to_string(world.deps + 1) +
                    " metadata calls, made " +
                    std::to_string(r.wrapped.stats.metadata_calls()));
      out.check(r.verify.ok, tag + "verify().ok");
      std::string digest = cycle_digest(r);
      if (request == 0) digest0 = std::move(digest);
      else out.check(digest == digest0, tag + "report digest equals cycle 0's");
      if (keep) keep->push_back(std::move(r));
    } catch (const std::exception& e) {
      ++timed.failed;
      std::fprintf(stderr, "pynamic cycle %llu failed: %s\n",
                   static_cast<unsigned long long>(request), e.what());
    }
  } while (seconds_between(start, Clock::now()) < seconds);
  timed.wall_s = seconds_between(start, Clock::now());
  timed.rss_mb = peak_rss_mb();
  return timed;
}

std::vector<double> pynamic_setups(std::uint64_t seed, std::optional<PynamicWorld>& keep) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    keep.reset();
    const auto t0 = Clock::now();
    keep.emplace(make_pynamic(seed));
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return setups;
}

void run_pynamic(Outcome& out, std::uint64_t seed, double seconds, bool trace,
                 const std::string& trace_dir) {
  std::optional<PynamicWorld> world;
  const auto setups = pynamic_setups(seed, world);
  // One untimed cycle first: the first cycle over a new world runs about
  // twice as long as every later one (cold caches and allocator).
  launch_cycle(world->base, nullptr, 0);
  if (!trace) {
    const Timed timed = pynamic_loop(out, *world, seconds, nullptr, nullptr);
    end_to_end_metrics(out, timed, setups);
    return;
  }

  // Untraced and traced passes over the same cycle, half the time each.
  const Timed untraced = pynamic_loop(out, *world, seconds / 2, nullptr, nullptr);
  out.attempted = untraced.attempted;
  out.failed = untraced.failed;
  perf::SpanLog log(Clock::now(), 1);
  std::vector<CycleReports> kept;
  const Timed traced = pynamic_loop(out, *world, seconds / 2, &log, &kept);

  // Rung self times from the traced cycles: every child of a cycle span.
  std::map<std::string, std::vector<double>> self;
  std::vector<double> rung_sum;
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0) {
      rung_sum.push_back(0);
      continue;
    }
    const double s = log.self_us(i);
    self[spans[i].name].push_back(s);
    rung_sum.back() += s;
  }
  auto p50 = [&](const char* name) { return perf::median(self[name]); };

  vfs::SyscallStats per_op;
  for (const auto& r : kept) per_op += r.fork_stats;
  const double cycles = static_cast<double>(kept.size());

  vfs_rungs(out, world->base, probe_paths(pynamic_builder(seed), {world->exe}));
  out.metric("vfs.metadata_calls_per_op",
             static_cast<double>(per_op.metadata_calls()) / cycles, "count");
  out.metric("vfs.failed_probe_share",
             static_cast<double>(per_op.failed_probes) /
                 static_cast<double>(per_op.metadata_calls()),
             "ratio");
  fork_rung(out, world->base, 64);

  loader_rungs(out, world->base, {world->exe, world->exe, world->exe});
  out.metric("shrinkwrap.wrap_ms", p50("shrinkwrap.wrap") / 1e3, "ms");
  out.metric("shrinkwrap.wrapped_load_ms", p50("shrinkwrap.wrapped_load") / 1e3, "ms");
  out.metric("shrinkwrap.verify_ms", p50("shrinkwrap.verify") / 1e3, "ms");

  // The service layers are idle in this workload; they are costed on a
  // pool over the same world so the ladder is complete.
  {
    svc::SessionPool pool(make_pynamic(seed).base, pool_config());
    submit_rungs(out, pool, {world->exe}, 8);
    svc::WireServer server(pool);
    svc::WireClient client("127.0.0.1", server.port());
    std::vector<double> rtt;
    for (svc::ClientId c = 1; c <= 8; ++c) {
      const auto t0 = Clock::now();
      const auto response = client.call(svc::WireKind::Load, c, world->exe);
      rtt.push_back(us_between(t0, Clock::now()));
      out.check(response.status == svc::WireStatus::Ok, "pynamic wire Load succeeds");
    }
    pool.drain();
    pool_metrics(out, pool.stats());
    out.metric("wire.round_trip_us", perf::median(rtt), "us");
    wire_stat_metrics(out, server.stats());
  }

  for (const auto& [name, values] : self) {
    out.note("self_p50_us." + name, fmt(perf::median(values), 1));
  }
  trace_metrics(out, untraced.p50(), perf::median(rung_sum), untraced.ops_per_s(),
                traced.ops_per_s(),
                "cycle glue outside the six spans: report moves and the "
                "fork_stats copy");
  out.check(write_trace(trace_dir, "pynamic_launch", seed, {&log}, out),
            "trace file written");
}

// ==== service_hot / service_churn ============================================
//
// A WireServer over a debian-world SessionPool with NfsModel on the base,
// driven by closed-loop connections (each waits for its reply before
// sending the next request), each with its own client ids.

core::WorldBuilder debian_builder() {
  core::WorldBuilder builder;
  builder.debian().nfs();
  return builder;
}

core::Session make_debian() { return debian_builder().build(); }

struct Service {
  std::unique_ptr<svc::SessionPool> pool;
  std::unique_ptr<svc::WireServer> server;
  std::vector<std::unique_ptr<svc::WireClient>> clients;  // one per connection
};

Service start_service() {
  Service s;
  s.pool = std::make_unique<svc::SessionPool>(make_debian(), pool_config());
  s.server = std::make_unique<svc::WireServer>(*s.pool);
  for (std::size_t c = 0; c < kConnections; ++c) {
    s.clients.push_back(std::make_unique<svc::WireClient>("127.0.0.1", s.server->port()));
  }
  return s;
}

std::vector<double> service_setups(std::optional<Service>& keep) {
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    keep.reset();
    const auto t0 = Clock::now();
    keep.emplace(start_service());
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  return setups;
}

svc::WireKind wire_kind(Verb verb) {
  switch (verb) {
    case Verb::Load:
      return svc::WireKind::Load;
    case Verb::Shrinkwrap:
      return svc::WireKind::Shrinkwrap;
    case Verb::Whatif:
      return svc::WireKind::Whatif;
    case Verb::Reset:
      return svc::WireKind::Reset;
  }
  return svc::WireKind::Load;
}

/// A connection's request generator (HotStream or ChurnStream).
using StreamFactory = std::function<std::function<Request()>(std::size_t connection)>;

/// What one connection got back, op by op, in stream order (the requests
/// themselves are regenerated from the seed when needed). The buffers are
/// sized and touched before the clock starts, from the run length and not
/// the throughput, so the benchmark's own bookkeeping does not make
/// peak_rss_mb follow ops/s.
struct ConnectionLog {
  explicit ConnectionLog(std::size_t capacity)
      : hashes(capacity), sim_time_s(capacity), latency_us(capacity), done_s(capacity) {}

  void record(std::uint64_t hash, double sim, float latency, float done) {
    if (count < hashes.size()) {
      hashes[count] = hash;
      sim_time_s[count] = sim;
      latency_us[count] = latency;
      done_s[count] = done;
    } else {
      hashes.push_back(hash);
      sim_time_s.push_back(sim);
      latency_us.push_back(latency);
      done_s.push_back(done);
    }
    ++count;
  }
  bool ok(std::size_t i) const { return latency_us[i] >= 0; }

  std::size_t count = 0;              // ops completed: a prefix of the stream
  std::vector<std::uint64_t> hashes;  // payload hash of each Ok response
  std::vector<double> sim_time_s;     // of each Ok Load response
  std::vector<float> latency_us;      // negative when the op failed
  std::vector<float> done_s;          // completion, seconds from the start
  std::string error;                  // transport failure that ended the loop
};

/// Closed loop: each connection sends its next request only once the
/// previous reply arrived, until `seconds` have passed. `ops_per_second`
/// sizes each connection's bookkeeping (a faster run still records every
/// op; its buffers just grow).
Timed closed_loop(Service& service, const StreamFactory& streams, double seconds,
                  double ops_per_second, std::vector<ConnectionLog>& logs,
                  std::vector<perf::SpanLog>* spans) {
  logs.clear();
  const auto capacity = static_cast<std::size_t>(seconds * ops_per_second);
  for (std::size_t c = 0; c < kConnections; ++c) logs.emplace_back(capacity);
  std::latch ready(static_cast<std::ptrdiff_t>(kConnections) + 1);
  std::latch go(1);
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<Clock::time_point> ends(kConnections);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto next = streams(c);
      auto& log = logs[c];
      auto& client = *service.clients[c];
      perf::SpanLog* span_log = spans ? &(*spans)[c] : nullptr;
      ready.arrive_and_wait();
      go.wait();
      while (Clock::now() < deadline) {
        const Request request = next();
        try {
          Scope span(span_log, perf::verb_name(request.verb), (c << 32) | log.count);
          const auto t0 = Clock::now();
          svc::WireResponse response =
              client.call(wire_kind(request.verb), request.client, request.exe);
          const auto t1 = Clock::now();
          span.end();
          if (response.status == svc::WireStatus::Ok) {
            log.record(payload_hash(response.payload),
                       request.verb == Verb::Load ? load_sim_time(response.payload) : 0,
                       static_cast<float>(us_between(t0, t1)),
                       static_cast<float>(seconds_between(start, t1)));
          } else {
            log.record(0, 0, -1, 0);
          }
        } catch (const std::exception& e) {
          log.error = e.what();
          break;
        }
      }
      ends[c] = Clock::now();
    });
  }
  ready.arrive_and_wait();
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  go.count_down();
  for (auto& t : threads) t.join();

  Timed timed;
  timed.rss_mb = peak_rss_mb();
  timed.wall_s = seconds_between(start, *std::max_element(ends.begin(), ends.end()));
  for (const auto& log : logs) {
    const bool broken = !log.error.empty();
    timed.attempted += log.count + broken;
    timed.failed += broken;
    for (std::size_t i = 0; i < log.count; ++i) {
      if (log.ok(i)) {
        timed.latency_us.push_back(log.latency_us[i]);
        timed.done_s.push_back(log.done_s[i]);
      } else {
        ++timed.failed;
      }
    }
  }
  return timed;
}

/// Executes `request` directly on a client's private fork, as the pool
/// would on the client's strand; returns the canonical response payload.
/// `fork` is replaced by a fresh fork of `base` on Reset.
std::string execute_direct(const core::Session& base, core::Session& fork,
                           const Request& request) {
  switch (request.verb) {
    case Verb::Load:
      return svc::encode_load_report(fork.load(request.exe));
    case Verb::Shrinkwrap:
      return svc::encode_wrap_report(fork.shrinkwrap(request.exe));
    case Verb::Whatif:
      return svc::encode_whatif_report(fork.whatif(request.exe));
    case Verb::Reset:
      fork = base.fork_sealed();
      return {};
  }
  return {};
}

/// The oracle both service workloads share: after the clock stops, every
/// client's command sequence is replayed on a private fork_sealed() of a
/// twin world, and each Ok payload must be byte-identical (by hash) to the
/// replay's. For service_hot that fork stays pristine, so this is the
/// pristine-fork reference of every Load.
///
/// One exception is counted apart instead of failing the run: a Load whose
/// bytes match except for the last bits of sim_time_s. The pool prices a
/// memo hit by summing its charge log from zero, while an executed load
/// reports the difference of a running total, so the two round
/// differently (see perf/README.md). A relative difference above 1e-9 still
/// fails: that is a different simulated cost, not rounding.
void replay_oracle(Outcome& out, const std::vector<ConnectionLog>& logs,
                   const StreamFactory& streams) {
  auto twin = make_debian();
  twin.seal();
  struct Tally {
    std::uint64_t exact = 0, drift = 0, mismatch = 0, layout = 0;
    std::string error;
  };
  // Clients are split over the replay threads; each thread walks every
  // connection's stream and replays only its own clients, in order.
  const std::size_t workers = std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<Tally> tallies(workers);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      Tally& t = tallies[w];
      try {
        std::unordered_map<std::uint64_t, core::Session> forks;
        for (std::size_t c = 0; c < logs.size(); ++c) {
          const ConnectionLog& log = logs[c];
          auto next = streams(c);
          for (std::size_t i = 0; i < log.count; ++i) {
            const Request request = next();
            if (request.client % workers != w) continue;
            auto it = forks.find(request.client);
            if (it == forks.end()) it = forks.emplace(request.client, twin.fork_sealed()).first;
            if (request.verb != Verb::Load) {
              const std::string expected = execute_direct(twin, it->second, request);
              if (!log.ok(i)) continue;
              if (payload_hash(expected) == log.hashes[i]) ++t.exact;
              else ++t.mismatch;
              continue;
            }
            const auto report = it->second.load(request.exe);
            const std::string expected = svc::encode_load_report(report);
            const double ref = load_sim_time(expected);
            if (std::memcmp(&ref, &report.stats.sim_time_s, sizeof ref) != 0 ||
                expected.compare(expected.size() - 4, 4, std::string(4, '\0')) != 0) {
              ++t.layout;
            }
            if (!log.ok(i)) continue;
            const double live = log.sim_time_s[i];
            if (payload_hash(expected) == log.hashes[i]) {
              ++t.exact;
            } else if (sim_time_close(live, ref) &&
                       payload_hash(with_load_sim_time(expected, live)) == log.hashes[i]) {
              ++t.drift;
            } else {
              ++t.mismatch;
            }
          }
        }
      } catch (const std::exception& e) {
        t.error = e.what();
      }
    });
  }
  for (auto& th : threads) th.join();
  Tally total;
  for (const Tally& t : tallies) {
    out.check(t.error.empty(), "replay oracle ran: " + t.error);
    total.exact += t.exact;
    total.drift += t.drift;
    total.mismatch += t.mismatch;
    total.layout += t.layout;
  }
  out.check(total.layout == 0, "load report encoding: sim_time_s sits 12 bytes from the end");
  out.check(total.mismatch == 0, std::to_string(total.mismatch) +
                                     " payloads differ from the twin-world replay");
  std::fprintf(stderr,
               "  oracle: %llu payloads byte-identical, %llu differ only in the last bits "
               "of sim_time_s\n",
               static_cast<unsigned long long>(total.exact),
               static_cast<unsigned long long>(total.drift));
}

void check_service(Outcome& out, const std::vector<ConnectionLog>& logs,
                   const svc::WireStats& wire) {
  for (const auto& log : logs) {
    out.check(log.error.empty(), "connection transport: " + log.error);
  }
  out.check(wire.decode_errors == 0, "wire.decode_errors == 0");
}

/// The first `per_connection` requests of every connection's stream,
/// interleaved round-robin, tagged with their connection.
std::vector<std::pair<std::size_t, Request>> ladder_requests(const StreamFactory& streams,
                                                             std::size_t per_connection) {
  std::vector<std::function<Request()>> gens;
  for (std::size_t c = 0; c < kConnections; ++c) gens.push_back(streams(c));
  std::vector<std::pair<std::size_t, Request>> out;
  for (std::size_t i = 0; i < per_connection; ++i) {
    for (std::size_t c = 0; c < kConnections; ++c) out.emplace_back(c, gens[c]());
  }
  return out;
}

std::vector<std::string> distinct_exes(const std::vector<std::pair<std::size_t, Request>>& reqs,
                                       std::size_t limit) {
  std::vector<std::string> exes;
  std::set<std::string> seen;
  for (const auto& [c, r] : reqs) {
    if (!r.exe.empty() && exes.size() < limit && seen.insert(r.exe).second) exes.push_back(r.exe);
  }
  return exes;
}

void run_service(Outcome& out, const std::string& workload, std::uint64_t seed,
                 double seconds, bool trace, const std::string& trace_dir) {
  const bool hot = workload == "service_hot";
  // Bookkeeping is sized for ~2x the op rate each workload reaches here.
  const double record_rate = hot ? 60000 : 5000;
  const auto popular = perf::popular_binaries(seed, kDebianBinaries, kHotPopular);
  const StreamFactory streams = [&](std::size_t c) -> std::function<Request()> {
    if (hot) {
      auto s = std::make_shared<perf::HotStream>(seed, c, popular, kHotZipfS,
                                                 kHotClientsPerConnection);
      return [s] { return s->next(); };
    }
    auto s = std::make_shared<perf::ChurnStream>(seed, c, kDebianBinaries,
                                                 kChurnClientsPerConnection);
    return [s] { return s->next(); };
  };

  // The service's threads start pinned; the oracle's replay threads
  // start after the pin is lifted and spread over the host.
  std::optional<CpuPin> pin(std::in_place);
  std::optional<Service> service;
  const auto setups = service_setups(service);
  std::vector<ConnectionLog> logs;
  const double e2e_seconds = trace ? seconds / 2 : seconds;
  const Timed untraced = closed_loop(*service, streams, e2e_seconds, record_rate, logs, nullptr);
  service->pool->drain();
  const svc::PoolStats pool_stats = service->pool->stats();
  const svc::WireStats wire_stats = service->server->stats();
  pin.reset();
  check_service(out, logs, wire_stats);
  replay_oracle(out, logs, streams);
  if (!trace) {
    end_to_end_metrics(out, untraced, setups);
    return;
  }
  out.attempted = untraced.attempted;
  out.failed = untraced.failed;
  service.reset();
  pin.emplace();  // the traced pass and the ladder run as the untraced pass did

  // Traced pass: the same streams from the start on a fresh service, with
  // a span around every WireClient::call.
  const auto epoch = Clock::now();
  std::vector<perf::SpanLog> e2e_spans;
  for (std::size_t c = 0; c < kConnections; ++c) e2e_spans.emplace_back(epoch, 10 + static_cast<int>(c));
  double traced_ops = 0;
  {
    auto traced_service = start_service();
    std::vector<ConnectionLog> traced_logs;
    traced_ops = closed_loop(traced_service, streams, seconds / 2, record_rate, traced_logs,
                             &e2e_spans)
                     .ops_per_s();
    check_service(out, traced_logs, traced_service.server->stats());
  }

  // Ladder: the first requests of the same streams, replayed serially one
  // rung at a time, each rung on a fresh twin: wire (WireClient::call),
  // svc (submit -> future), and the Session verb on a private fork.
  const auto requests = ladder_requests(streams, kLadderRequestsPerConnection);
  const std::size_t n = requests.size();
  perf::SpanLog wire_log(epoch, 1), svc_log(epoch, 2), verb_log(epoch, 3);
  std::vector<std::string> wire_payload(n), svc_payload(n), verb_payload(n);
  std::vector<double> wire_us(n), svc_us(n), verb_us(n, 0), fork_us(n, 0);
  std::vector<bool> memo_hit(n, false);
  {
    auto s = start_service();
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [c, r] = requests[i];
      const int id = wire_log.open("wire.call", i);
      auto response = s.clients[c]->call(wire_kind(r.verb), r.client, r.exe);
      wire_log.close(id);
      wire_us[i] = wire_log.spans()[static_cast<std::size_t>(id)].dur_us();
      out.check(response.status == svc::WireStatus::Ok, "ladder wire call succeeds");
      wire_payload[i] = std::move(response.payload);
    }
  }
  {
    svc::SessionPool pool(make_debian(), pool_config());
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = requests[i].second;
      const std::uint64_t hits_before = pool.stats().memo_hits;
      const int id = svc_log.open("svc.submit", i);
      switch (r.verb) {
        case Verb::Load:
          svc_payload[i] = svc::encode_load_report(*pool.submit_load_shared(r.client, r.exe).get());
          break;
        case Verb::Shrinkwrap:
          svc_payload[i] = svc::encode_wrap_report(pool.submit_shrinkwrap(r.client, r.exe).get());
          break;
        case Verb::Whatif:
          svc_payload[i] = svc::encode_whatif_report(pool.submit_whatif(r.client, r.exe).get());
          break;
        case Verb::Reset:
          pool.reset(r.client).get();
          break;
      }
      svc_log.close(id);
      svc_us[i] = svc_log.spans()[static_cast<std::size_t>(id)].dur_us();
      memo_hit[i] = pool.stats().memo_hits > hits_before;
    }
  }
  vfs::SyscallStats op_stats;
  {
    auto twin = make_debian();
    twin.seal();
    std::unordered_map<std::uint64_t, core::Session> forks;
    const char* verb_span[] = {"loader.load", "shrinkwrap.wrap", "core.whatif", "core.fork_sealed"};
    for (std::size_t i = 0; i < n; ++i) {
      const auto& r = requests[i].second;
      auto it = forks.find(r.client);
      if (it == forks.end()) {
        // The pool forks a client lazily, on its first request.
        const auto f0 = Clock::now();
        auto fork = twin.fork_sealed();
        const auto f1 = Clock::now();
        verb_log.add("core.fork_sealed", i, f0, f1);
        fork_us[i] = us_between(f0, f1);
        it = forks.emplace(r.client, std::move(fork)).first;
      }
      const auto v0 = Clock::now();
      verb_payload[i] = execute_direct(twin, it->second, r);
      const auto v1 = Clock::now();
      verb_log.add(verb_span[static_cast<int>(r.verb)], i, v0, v1);
      verb_us[i] = us_between(v0, v1);
      switch (r.verb) {
        case Verb::Load:
          op_stats += svc::decode_load_report(verb_payload[i]).stats;
          break;
        case Verb::Shrinkwrap:
          op_stats += svc::decode_wrap_report(verb_payload[i]).wrap_cost;
          break;
        case Verb::Whatif: {
          const auto w = svc::decode_whatif_report(verb_payload[i]);
          op_stats += w.before.stats;
          op_stats += w.after.stats;
          op_stats += w.wrap.wrap_cost;
          break;
        }
        case Verb::Reset:
          break;
      }
    }
  }
  // Wire and in-process pool run the same code in the same order, so
  // their payloads must be byte-identical; the direct replay may differ
  // from the pool only by the sim_time_s rounding replay_oracle explains.
  std::size_t wire_vs_svc = 0, svc_vs_direct = 0;
  for (std::size_t i = 0; i < n; ++i) {
    wire_vs_svc += wire_payload[i] != svc_payload[i];
    const std::string& pooled = svc_payload[i];
    const std::string& direct = verb_payload[i];
    const bool rounding = requests[i].second.verb == Verb::Load && pooled.size() == direct.size() &&
                          sim_time_close(load_sim_time(pooled), load_sim_time(direct)) &&
                          with_load_sim_time(direct, load_sim_time(pooled)) == pooled;
    svc_vs_direct += pooled != direct && !rounding;
  }
  out.check(wire_vs_svc == 0, "ladder: " + std::to_string(wire_vs_svc) +
                                  " wire payloads differ from the in-process pool's");
  out.check(svc_vs_direct == 0, "ladder: " + std::to_string(svc_vs_direct) +
                                    " pool payloads differ from the direct fork replay's");

  // Per-request self times: wire over svc, svc over whatever the pool ran
  // below it (nothing on a memo hit), the verb and fork on their own.
  // Summed per request they telescope to the wire span itself, so the
  // residual is what the timed closed loop adds over this serial replay
  // of its first requests.
  std::vector<double> wire_self(n), svc_self(n);
  std::map<std::string, std::vector<double>> verb_self;
  for (std::size_t i = 0; i < n; ++i) {
    const double below = memo_hit[i] ? 0 : verb_us[i] + fork_us[i];
    wire_self[i] = wire_us[i] - svc_us[i];
    svc_self[i] = svc_us[i] - below;
    if (!memo_hit[i]) verb_self[perf::verb_name(requests[i].second.verb)].push_back(verb_us[i]);
  }

  const auto exes = distinct_exes(requests, kLadderExes);
  auto twin = make_debian();
  twin.seal();
  vfs_rungs(out, twin, probe_paths(debian_builder(), exes));
  out.metric("vfs.metadata_calls_per_op",
             static_cast<double>(op_stats.metadata_calls()) / static_cast<double>(n), "count");
  out.metric("vfs.failed_probe_share",
             static_cast<double>(op_stats.failed_probes) /
                 static_cast<double>(op_stats.metadata_calls()),
             "ratio");
  fork_rung(out, twin, 2000);
  loader_rungs(out, twin, exes);
  {
    std::vector<double> wrap, wrapped, verify;
    for (std::size_t i = 0; i < std::min(kLadderWrapExes, exes.size()); ++i) {
      auto fork = twin.fork_sealed();
      const auto t0 = Clock::now();
      const auto w = fork.shrinkwrap(exes[i]);
      const auto t1 = Clock::now();
      fork.load(exes[i]);
      const auto t2 = Clock::now();
      const auto v = fork.verify(exes[i]);
      const auto t3 = Clock::now();
      out.check(w.ok() && v.ok, "ladder shrinkwrap + verify of " + exes[i]);
      wrap.push_back(us_between(t0, t1) / 1e3);
      wrapped.push_back(us_between(t1, t2) / 1e3);
      verify.push_back(us_between(t2, t3) / 1e3);
    }
    out.metric("shrinkwrap.wrap_ms", perf::median(wrap), "ms");
    out.metric("shrinkwrap.wrapped_load_ms", perf::median(wrapped), "ms");
    out.metric("shrinkwrap.verify_ms", perf::median(verify), "ms");
  }
  {
    svc::SessionPool pool(make_debian(), pool_config());
    submit_rungs(out, pool, exes, 4);
  }
  pool_metrics(out, pool_stats);
  out.metric("wire.round_trip_us", perf::median(wire_us), "us");
  wire_stat_metrics(out, wire_stats);

  out.note("self_p50_us.wire", fmt(perf::median(wire_self), 1));
  out.note("self_p50_us.svc", fmt(perf::median(svc_self), 1));
  for (const auto& [verb, values] : verb_self) {
    out.note("self_p50_us." + verb + " (pool ran it)",
             fmt(perf::median(values), 1) + " over " + std::to_string(values.size()));
  }
  out.note("ladder.memo_hits", std::to_string(std::count(memo_hit.begin(), memo_hit.end(), true)) +
                                   " of " + std::to_string(n));
  trace_metrics(out, untraced.p50(), perf::median(wire_us), untraced.ops_per_s(), traced_ops,
                "the timed loop beyond the ladder's replay of its first requests: the "
                "rest of the run's stream and the host's interference while it ran");
  std::vector<const perf::SpanLog*> all = {&wire_log, &svc_log, &verb_log};
  for (const auto& log : e2e_spans) all.push_back(&log);
  out.check(write_trace(trace_dir, workload, seed, all, out), "trace file written");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string trace_dir;
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") throw std::invalid_argument("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(args.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s\n", e.what());
    return 2;
  }
  Outcome out;
  try {
    std::fprintf(stderr, "%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds, args.trace);
    if (args.workload == "pynamic_launch") {
      run_pynamic(out, args.seed, args.seconds, args.trace, args.trace_dir);
    } else if (args.workload == "service_hot" || args.workload == "service_churn") {
      run_service(out, args.workload, args.seed, args.seconds, args.trace, args.trace_dir);
    } else {
      std::fprintf(stderr, "perf_bench: unknown workload %s\n", args.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_bench: %s\n", e.what());
    return 1;
  }
  for (const auto& m : out.metrics) {
    std::fprintf(stderr, "  %-28s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  print_result(out);
  return out.correct ? 0 : 1;
}
