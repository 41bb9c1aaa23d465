#include "sim/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace flotilla::sim {

void Tally::add(double x) {
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Tally::variance() const {
  return count_ ? m2_ / static_cast<double>(count_) : 0.0;
}

double Tally::stddev() const { return std::sqrt(variance()); }

void TimeWeighted::set(Time t, double value) {
  if (!started_) {
    started_ = true;
    first_time_ = t;
    last_time_ = t;
    value_ = value;
    max_ = value;
    return;
  }
  FLOT_CHECK(t >= last_time_, "TimeWeighted updates must be ordered: ", t,
             " < ", last_time_);
  integral_ += value_ * (t - last_time_);
  last_time_ = t;
  value_ = value;
  max_ = std::max(max_, value);
}

double TimeWeighted::integral(Time t) const {
  if (!started_) return 0.0;
  FLOT_CHECK(t >= last_time_, "integral endpoint before last update");
  return integral_ + value_ * (t - last_time_);
}

double TimeWeighted::time_average(Time t) const {
  if (!started_ || t <= first_time_) return value_;
  return integral(t) / (t - first_time_);
}

void RateSeries::record(Time t, std::uint64_t count) {
  FLOT_CHECK(t >= 0.0, "negative event time ", t);
  const auto bin = static_cast<std::size_t>(t / bin_width_);
  if (bin >= bins_.size()) bins_.resize(bin + 1, 0);
  bins_[bin] += count;
  total_ += count;
  first_ = std::min(first_, t);
  last_ = std::max(last_, t);
}

double RateSeries::peak_rate() const {
  std::uint64_t best = 0;
  for (const auto b : bins_) best = std::max(best, b);
  return static_cast<double>(best) / bin_width_;
}

double RateSeries::mean_nonzero_rate() const {
  std::uint64_t sum = 0;
  std::size_t nonzero = 0;
  for (const auto b : bins_) {
    if (b) {
      sum += b;
      ++nonzero;
    }
  }
  if (!nonzero) return 0.0;
  return static_cast<double>(sum) / static_cast<double>(nonzero) / bin_width_;
}

double RateSeries::window_rate() const {
  if (total_ < 2 || last_ <= first_) return 0.0;
  return static_cast<double>(total_) / (last_ - first_);
}

int LatencyHistogram::bucket_of(double seconds) {
  if (seconds <= kFloor) return 0;
  const int bucket =
      static_cast<int>(std::log(seconds / kFloor) / std::log(kGrowth));
  return std::clamp(bucket, 0, kBuckets - 1);
}

double LatencyHistogram::bucket_lower(int bucket) {
  return kFloor * std::pow(kGrowth, bucket);
}

void LatencyHistogram::record(double seconds) {
  FLOT_CHECK(seconds >= 0.0, "negative latency ", seconds);
  ++buckets_[static_cast<std::size_t>(bucket_of(seconds))];
  if (count_ == 0) {
    min_ = max_ = seconds;
  } else {
    min_ = std::min(min_, seconds);
    max_ = std::max(max_, seconds);
  }
  ++count_;
  sum_ += seconds;
}

double LatencyHistogram::percentile(double q) const {
  FLOT_CHECK(q >= 0.0 && q <= 1.0, "quantile out of range: ", q);
  if (count_ == 0) return 0.0;
  const double target = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const auto in_bucket = buckets_[static_cast<std::size_t>(b)];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= target) {
      // Linear interpolation within the bucket.
      const double frac = (target - static_cast<double>(seen)) /
                          static_cast<double>(in_bucket);
      const double lo = bucket_lower(b);
      const double hi = bucket_lower(b + 1);
      const double value = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      return std::clamp(value, min_, max_);
    }
    seen += in_bucket;
  }
  return max_;
}

}  // namespace flotilla::sim
