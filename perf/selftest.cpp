// Self-test of the benchmark's own helpers: the percentile rules and the
// seeded request streams. Exit code 0 iff every check passes.
//
//   .bench_build/perf_selftest

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"
#include "stream.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

void test_percentiles() {
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);  // unsorted on purpose
  expect(perf::percentile(hundred, 50) == 50, "p50 of 1..100 is 50 (nearest rank)");
  expect(perf::percentile(hundred, 99) == 99, "p99 of 1..100 is 99");
  expect(perf::percentile(hundred, 100) == 100, "p100 is the maximum");
  expect(perf::percentile({7}, 99) == 7, "any percentile of one sample is that sample");
  expect(perf::percentile({}, 50) == 0, "empty sample reads 0");
  expect(perf::median({3, 1, 2}) == 2, "median of 3 samples");
  expect(perf::median({4, 1, 3, 2}) == 2, "median of 4 samples is the lower middle");
}

void test_reportable_tail() {
  // p99 needs ten samples ranked above it: n - ceil(0.99 n) >= 10.
  expect(perf::reportable_tail(1000) == 99.0, "1000 samples: p99 is reportable");
  expect(perf::reportable_tail(999) == 95.0, "999 samples: only p95");
  expect(perf::reportable_tail(10000) == 99.9, "10000 samples: p99.9");
  expect(perf::reportable_tail(200) == 95.0, "200 samples: p95");
  expect(perf::reportable_tail(100) == 90.0, "100 samples: p90");
  expect(perf::reportable_tail(20) == 50.0, "20 samples: only the median");
  expect(!perf::reportable_tail(19).has_value(), "19 samples: no percentile qualifies");
  expect(!perf::reportable_tail(0).has_value(), "no samples: nothing");
}

std::vector<std::size_t> zipf_draws(std::uint64_t seed, std::size_t count) {
  perf::Rng rng(seed);
  perf::Zipf zipf(256, 1.0);
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < count; ++i) out.push_back(zipf(rng));
  return out;
}

void test_zipf() {
  expect(zipf_draws(42, 5000) == zipf_draws(42, 5000), "Zipf: same seed, same draws");
  expect(zipf_draws(42, 5000) != zipf_draws(43, 5000), "Zipf: another seed, other draws");
  const auto draws = zipf_draws(7, 200000);
  std::map<std::size_t, std::size_t> count;
  bool in_range = true;
  for (const auto d : draws) {
    ++count[d];
    in_range = in_range && d < 256;
  }
  expect(in_range, "Zipf: every rank is in [0, 256)");
  double harmonic = 0;
  for (int k = 1; k <= 256; ++k) harmonic += 1.0 / k;
  const double top = static_cast<double>(count[0]) / static_cast<double>(draws.size());
  expect(std::abs(top - 1.0 / harmonic) < 0.005,
         "Zipf(1): rank 0 share " + std::to_string(top) + " ~ 1/H(256)");
  const double ratio = static_cast<double>(count[0]) / static_cast<double>(count[1]);
  expect(std::abs(ratio - 2.0) < 0.1, "Zipf(1): rank 0 is twice as frequent as rank 1");
}

std::vector<std::string> describe(auto stream, std::size_t count) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < count; ++i) {
    const perf::Request r = stream.next();
    out.push_back(std::string(perf::verb_name(r.verb)) + " " + std::to_string(r.client) +
                  " " + r.exe);
  }
  return out;
}

void test_streams() {
  const auto popular = perf::popular_binaries(9, 3287, 256);
  expect(popular == perf::popular_binaries(9, 3287, 256), "popular set is seeded");
  expect(popular != perf::popular_binaries(10, 3287, 256), "popular set changes with the seed");
  std::map<std::string, int> distinct;
  for (const auto& p : popular) ++distinct[p];
  expect(distinct.size() == 256, "popular set has 256 distinct binaries");

  const auto hot = describe(perf::HotStream(9, 0, popular, 1.0, 32), 1000);
  expect(hot == describe(perf::HotStream(9, 0, popular, 1.0, 32), 1000),
         "hot stream: same seed, same requests");
  expect(hot != describe(perf::HotStream(9, 1, popular, 1.0, 32), 1000),
         "hot stream: connections draw independent streams");
  bool own_clients = true;
  perf::HotStream second(9, 1, popular, 1.0, 32);
  for (int i = 0; i < 1000; ++i) {
    const auto c = second.next().client;
    own_clients = own_clients && c >= 33 && c <= 64;
  }
  expect(own_clients, "hot stream: connection 1 uses only client ids 33..64");

  perf::ChurnStream churn(9, 0, 3287, 16);
  bool cycle_ok = true;
  for (int cycle = 0; cycle < 40; ++cycle) {
    const auto a = churn.next(), b = churn.next(), c = churn.next(), d = churn.next();
    cycle_ok = cycle_ok && a.verb == perf::Verb::Shrinkwrap && b.verb == perf::Verb::Load &&
               c.verb == perf::Verb::Whatif && d.verb == perf::Verb::Reset &&
               a.exe == b.exe && a.client == b.client && b.client == c.client &&
               c.client == d.client && d.exe.empty() &&
               a.client == 1000u + static_cast<unsigned>(cycle % 16);
  }
  expect(cycle_ok, "churn stream: Shrinkwrap -> Load -> Whatif -> Reset per client, in turn");
  expect(describe(perf::ChurnStream(9, 0, 3287, 16), 400) ==
             describe(perf::ChurnStream(9, 0, 3287, 16), 400),
         "churn stream: same seed, same requests");
}

}  // namespace

int main() {
  test_percentiles();
  test_reportable_tail();
  test_zipf();
  test_streams();
  std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed", failures);
  return failures ? 1 : 0;
}
