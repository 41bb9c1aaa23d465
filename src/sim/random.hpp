// Deterministic per-component random streams.
//
// Each simulation component derives its own stream from (master seed,
// component name), so adding a component or reordering draws in one
// component never perturbs another — essential for reproducible experiment
// sweeps. The generator is xoshiro256**, seeded via splitmix64.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace flotilla::sim {

class RngStream {
 public:
  explicit RngStream(std::uint64_t seed) { reseed(seed); }
  RngStream(std::uint64_t master_seed, std::string_view component) {
    reseed(master_seed ^ hash(component));
  }

  void reseed(std::uint64_t seed);

  std::uint64_t next_u64();

  // Uniform in [0, 1).
  double uniform();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  // Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  // Exponential with the given mean (not rate).
  double exponential(double mean);

  // Standard normal via Box–Muller (stateless variant: two draws per call).
  double normal(double mean = 0.0, double stddev = 1.0);

  // Lognormal parameterized by the mean of the *resulting* distribution and
  // the coefficient of variation (sigma of the underlying normal derived
  // from cv). Convenient for service-time jitter: jittered(m, 0.2) has mean
  // m and ~20% relative spread.
  //
  // The underlying (mu, sigma) of the kLognormalMemo (mean, cv) pairs that
  // missed most recently are memoized, so a repeated calibrated jitter pays
  // only the normal draw and one exp. The memo is exact: it is keyed by
  // the pair's values, and holds the very doubles the formula computes for
  // them, so a hit, a miss or an eviction changes the speed of a draw,
  // never its bits. Eight entries hold a Flux instance's four fixed pairs
  // with room for the per-job wireup means drawn between them; a miss
  // overwrites the entries in rotation.
  double lognormal_mean_cv(double mean, double cv);

  // True with probability p.
  bool bernoulli(double p) { return uniform() < p; }

  static std::uint64_t hash(std::string_view s);

 private:
  struct LognormalParams {
    double mean = 0.0;  // never a key: lognormal_mean_cv takes mean > 0
    double cv = 0.0;
    double mu = 0.0;
    double sigma = 0.0;
  };
  static constexpr std::size_t kLognormalMemo = 8;

  std::uint64_t state_[4] = {};
  LognormalParams lognormal_memo_[kLognormalMemo];
  std::size_t lognormal_victim_ = 0;  // next entry a miss overwrites
};

}  // namespace flotilla::sim
