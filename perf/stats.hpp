// Sample statistics shared by the benchmark and its self-test.
//
// Percentiles are nearest-rank: the reported value is always one of the
// measured samples, never an interpolation between two of them.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perf {

/// Nearest-rank rank (1-based) of percentile `q` (0 < q <= 100) in `n`
/// samples: the smallest k with k/n >= q/100.
inline std::size_t nearest_rank(std::size_t n, double q) {
  if (n == 0) return 0;
  const double exact = q / 100.0 * static_cast<double>(n);
  auto k = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::size_t>(k, 1, n);
}

/// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
inline double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

/// Sorts a copy of `samples` and returns its nearest-rank percentile.
inline double percentile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return percentile_sorted(samples, q);
}

inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50);
}

/// The tail percentiles a timing may be reported at, highest first.
inline constexpr std::array<double, 6> kTailLadder = {99.9, 99, 95, 90, 75,
                                                      50};

/// The highest percentile of kTailLadder that still has at least
/// `min_beyond` samples ranked above it in `n` samples, or nullopt when
/// even the median does not. A p99 needs n >= 1000 to be reportable.
inline std::optional<double> reportable_tail(std::size_t n,
                                             std::size_t min_beyond = 10) {
  for (const double q : kTailLadder) {
    if (n > 0 && n - nearest_rank(n, q) >= min_beyond) return q;
  }
  return std::nullopt;
}

}  // namespace perf
