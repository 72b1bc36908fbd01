// Seeded request streams for the benchmark workloads.
//
// The generators live here, not in the library, so a change to the
// library's own random sources can never change what the benchmark asks
// for: the same --seed always yields the same requests.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace perf {

/// SplitMix64 (Steele, Lea, Flood): small, fast, and fully specified, so
/// streams are identical across compilers and standard libraries.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 bits of precision.
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n); n > 0. The modulo bias is below 2^-40 for the
  /// n used here.
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a stream tag.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  Rng rng(seed ^ (tag * 0xd6e8feb86659fd93ull));
  return rng.next();
}

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double total = 0;
    for (std::size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// The wire verbs the service workloads send.
enum class Verb : std::uint8_t { Load, Shrinkwrap, Whatif, Reset };

inline const char* verb_name(Verb verb) {
  switch (verb) {
    case Verb::Load:
      return "load";
    case Verb::Shrinkwrap:
      return "shrinkwrap";
    case Verb::Whatif:
      return "whatif";
    case Verb::Reset:
      return "reset";
  }
  return "?";
}

struct Request {
  Verb verb = Verb::Load;
  std::uint64_t client = 0;
  std::string exe;  // empty for Reset
};

/// /usr/bin/bin<i>, the executables of the installed debian world.
inline std::string debian_exe(std::size_t index) {
  return "/usr/bin/bin" + std::to_string(index);
}

/// service_hot, one connection's stream: Loads of `popular` binaries drawn
/// Zipf(s) by rank, each from one of `clients` client ids that belong to
/// this connection alone (so a client's request order is this stream's).
/// The rank order is reshuffled every kRerankEvery requests: a run then
/// averages over many rank-1 binaries, so its cost does not hinge on the
/// closure size of the one binary a seed happens to make most popular.
class HotStream {
 public:
  static constexpr std::uint64_t kRerankEvery = 2048;

  HotStream(std::uint64_t seed, std::size_t connection,
            std::vector<std::string> popular, double s, std::size_t clients)
      : rng_(derive_seed(seed, 0x100 + connection)),
        popular_(std::move(popular)),
        order_(popular_.size()),
        zipf_(popular_.size(), s),
        first_client_(1 + connection * clients),
        clients_(clients) {
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  }

  Request next() {
    if (position_++ % kRerankEvery == 0) {
      for (std::size_t i = order_.size(); i > 1; --i) {
        std::swap(order_[i - 1], order_[rng_.below(i)]);
      }
    }
    Request r;
    r.client = first_client_ + rng_.below(clients_);
    r.exe = popular_[order_[zipf_(rng_)]];
    return r;
  }

 private:
  Rng rng_;
  std::vector<std::string> popular_;
  std::vector<std::size_t> order_;  // rank -> index into popular_
  Zipf zipf_;
  std::uint64_t first_client_;
  std::uint64_t clients_;
  std::uint64_t position_ = 0;
};

/// The `count` popular binaries of service_hot: a seeded sample without
/// replacement from the world's `world_size` executables.
inline std::vector<std::string> popular_binaries(std::uint64_t seed,
                                                 std::size_t world_size,
                                                 std::size_t count) {
  std::vector<std::size_t> index(world_size);
  for (std::size_t i = 0; i < world_size; ++i) index[i] = i;
  Rng rng(derive_seed(seed, 0x50));
  count = std::min(count, world_size);
  for (std::size_t i = 0; i < count; ++i) {
    std::swap(index[i], index[i + rng.below(world_size - i)]);
  }
  std::vector<std::string> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(debian_exe(index[i]));
  return out;
}

/// service_churn, one connection's stream: its own `clients` ids taken in
/// turn, each through Shrinkwrap(exe) -> Load(exe) -> Whatif(exe') ->
/// Reset, with exe and exe' uniform over the whole world.
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, std::size_t connection,
              std::size_t world_size, std::size_t clients)
      : rng_(derive_seed(seed, 0x200 + connection)),
        world_size_(world_size),
        first_client_(1000 + connection * clients),
        clients_(clients) {}

  Request next() {
    Request r;
    const std::size_t step = position_ % 4;
    if (step == 0) {
      client_ = first_client_ + (position_ / 4) % clients_;
      exe_ = debian_exe(rng_.below(world_size_));
      other_ = debian_exe(rng_.below(world_size_));
    }
    ++position_;
    r.client = client_;
    switch (step) {
      case 0:
        r.verb = Verb::Shrinkwrap;
        r.exe = exe_;
        break;
      case 1:
        r.verb = Verb::Load;
        r.exe = exe_;
        break;
      case 2:
        r.verb = Verb::Whatif;
        r.exe = other_;
        break;
      default:
        r.verb = Verb::Reset;
        break;
    }
    return r;
  }

 private:
  Rng rng_;
  std::size_t world_size_;
  std::uint64_t first_client_;
  std::uint64_t clients_;
  std::uint64_t position_ = 0;
  std::uint64_t client_ = 0;
  std::string exe_;
  std::string other_;
};

}  // namespace perf
