// Statistics accumulators for simulation metrics.
//
//  - Tally: scalar samples (Welford mean/variance, min/max).
//  - TimeWeighted: a step function of virtual time, integrated exactly;
//    backs utilization and concurrency metrics.
//  - RateSeries: per-bin event counts over virtual time; backs throughput
//    (tasks/s) metrics. "Average rate" follows the paper's convention:
//    mean over *nonzero* bins; "peak" is the max bin.
//  - LatencyHistogram: log-spaced duration buckets with interpolated
//    percentiles; backs the ingress submit->launch/turnaround tails and
//    the obs OverheadReport's per-span distributions.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "sim/engine.hpp"

namespace flotilla::sim {

class Tally {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? mean_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }
  double variance() const;  // population variance
  double stddev() const;
  double sum() const { return sum_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

class TimeWeighted {
 public:
  explicit TimeWeighted(double initial = 0.0) : value_(initial) {}

  // Records that the tracked quantity changed to `value` at time `t`.
  // Times must be non-decreasing.
  void set(Time t, double value);
  void add(Time t, double delta) { set(t, value_ + delta); }

  double value() const { return value_; }
  double max_value() const { return max_; }

  // Integral of the step function over [start, t]; `t` must be >= the last
  // update time.
  double integral(Time t) const;
  // Mean value over [t0, t]; t0 defaults to the first update time.
  double time_average(Time t) const;

  Time first_time() const { return first_time_; }
  Time last_time() const { return last_time_; }

 private:
  double value_;
  double max_ = -std::numeric_limits<double>::infinity();
  double integral_ = 0.0;
  Time first_time_ = 0.0;
  Time last_time_ = 0.0;
  bool started_ = false;
};

class RateSeries {
 public:
  explicit RateSeries(Time bin_width = 1.0) : bin_width_(bin_width) {}

  void record(Time t, std::uint64_t count = 1);

  std::uint64_t total() const { return total_; }
  Time bin_width() const { return bin_width_; }
  const std::vector<std::uint64_t>& bins() const { return bins_; }

  // Max events per bin, scaled to events/second.
  double peak_rate() const;
  // Mean rate over nonzero bins (paper convention for "avg throughput").
  double mean_nonzero_rate() const;
  // total / (last event time - first event time); 0 if fewer than 2 events.
  double window_rate() const;

  Time first_event() const { return first_; }
  Time last_event() const { return last_; }

 private:
  Time bin_width_;
  std::vector<std::uint64_t> bins_;
  std::uint64_t total_ = 0;
  Time first_ = kInfiniteTime;
  Time last_ = -kInfiniteTime;
};

// Log-spaced buckets over [10 us, ~3.6 h] of virtual time — constant
// memory regardless of sample count, ~2.3% relative bucket resolution
// (larger samples land in the top bucket). Samples must be non-negative.
class LatencyHistogram {
 public:
  void record(double seconds);

  std::uint64_t count() const { return count_; }
  double mean() const { return count_ ? sum_ / count_ : 0.0; }
  double min() const { return count_ ? min_ : 0.0; }
  double max() const { return count_ ? max_ : 0.0; }

  // Value at quantile q in [0, 1], interpolated within the bucket and
  // clamped to [min(), max()]. Returns 0 for an empty histogram.
  double percentile(double q) const;

 private:
  static constexpr double kFloor = 1e-5;  // bucket 0 lower bound [s]
  static constexpr double kGrowth = 1.1;  // per-bucket growth factor
  static constexpr int kBuckets = 220;    // 1e-5 * 1.1^220 ~ 1.3e4 s

  static int bucket_of(double seconds);
  static double bucket_lower(int bucket);

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace flotilla::sim
