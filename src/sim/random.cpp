#include "sim/random.hpp"

#include "util/hash.hpp"

namespace flotilla::sim {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t RngStream::hash(std::string_view s) {
  // FNV-1a, then one splitmix64 round for avalanche.
  std::uint64_t h = util::fnv1a64(util::kFnv64Basis, s);
  return splitmix64(h);
}

void RngStream::reseed(std::uint64_t seed) {
  for (auto& word : state_) word = splitmix64(seed);
}

std::uint64_t RngStream::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double RngStream::uniform() {
  // 53 random mantissa bits.
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::int64_t RngStream::uniform_int(std::int64_t lo, std::int64_t hi) {
  if (lo >= hi) return lo;
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(next_u64() % span);
}

double RngStream::exponential(double mean) {
  double u = uniform();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

double RngStream::normal(double mean, double stddev) {
  double u1 = uniform();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.141592653589793 * u2);
  return mean + stddev * z;
}

double RngStream::lognormal_mean_cv(double mean, double cv) {
  if (mean <= 0.0) return 0.0;
  if (cv <= 0.0) return mean;
  for (const LognormalParams& memo : lognormal_memo_) {
    if (memo.mean == mean && memo.cv == cv) {
      return std::exp(normal(memo.mu, memo.sigma));
    }
  }
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  const double sigma = std::sqrt(sigma2);
  lognormal_memo_[lognormal_victim_] = LognormalParams{mean, cv, mu, sigma};
  lognormal_victim_ = (lognormal_victim_ + 1) % kLognormalMemo;
  return std::exp(normal(mu, sigma));
}

}  // namespace flotilla::sim
