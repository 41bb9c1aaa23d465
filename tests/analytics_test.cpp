#include <gtest/gtest.h>

#include "analytics/metrics.hpp"

namespace flotilla::analytics {
namespace {

TEST(RunMetrics, ThroughputFromLaunchSeries) {
  RunMetrics metrics;
  metrics.on_submit(0.0);
  for (int i = 0; i < 10; ++i) {
    metrics.on_launch(0.1 * i, 1, 0);  // 10 launches in bin 0
  }
  for (int i = 0; i < 5; ++i) {
    metrics.on_launch(2.0 + 0.1 * i, 1, 0);  // 5 launches in bin 2
  }
  EXPECT_DOUBLE_EQ(metrics.peak_throughput(), 10.0);
  EXPECT_DOUBLE_EQ(metrics.avg_throughput(), 7.5);  // mean of nonzero bins
  EXPECT_EQ(metrics.launch_series().total(), 15u);
}

TEST(RunMetrics, UtilizationOverLaunchToCompletionSpan) {
  RunMetrics metrics;
  metrics.on_submit(0.0);
  // Two 4-core tasks run [10, 110]; capacity 8 cores -> 100% utilization.
  metrics.on_launch(10.0, 4, 1);
  metrics.on_launch(10.0, 4, 1);
  metrics.on_attempt_end(110.0, 4, 1);
  metrics.on_attempt_end(110.0, 4, 1);
  metrics.on_final(110.0, true);
  metrics.on_final(110.0, true);
  EXPECT_NEAR(metrics.core_utilization(8), 1.0, 1e-9);
  EXPECT_NEAR(metrics.gpu_utilization(2), 1.0, 1e-9);
  EXPECT_NEAR(metrics.core_utilization(16), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(metrics.peak_concurrency(), 2.0);
  EXPECT_DOUBLE_EQ(metrics.makespan(), 110.0);
  EXPECT_EQ(metrics.tasks_done(), 2u);
}

TEST(RunMetrics, BootstrapIdleTimeExcludedFromUtilization) {
  RunMetrics metrics;
  metrics.on_submit(0.0);
  // Launch only at t=1000 (long bootstrap); runs 100 s on all 4 cores.
  metrics.on_launch(1000.0, 4, 0);
  metrics.on_attempt_end(1100.0, 4, 0);
  metrics.on_final(1100.0, true);
  EXPECT_NEAR(metrics.core_utilization(4), 1.0, 1e-9);  // not diluted
}

TEST(RunMetrics, RetriedAttemptsCountedPerLaunch) {
  RunMetrics metrics;
  metrics.on_submit(0.0);
  metrics.on_launch(1.0, 2, 0);
  metrics.on_attempt_end(5.0, 2, 0);  // failed attempt
  metrics.on_retry();
  metrics.on_launch(6.0, 2, 0);
  metrics.on_attempt_end(10.0, 2, 0);
  metrics.on_final(10.0, true);
  EXPECT_EQ(metrics.launch_series().total(), 2u);
  EXPECT_EQ(metrics.tasks_retried(), 1u);
  EXPECT_EQ(metrics.tasks_done(), 1u);
  EXPECT_EQ(metrics.tasks_failed(), 0u);
}

TEST(RunMetrics, NeverLaunchedFailureCountsWithoutBusyAccounting) {
  RunMetrics metrics;
  metrics.on_submit(0.0);
  metrics.on_final(3.0, false);
  EXPECT_EQ(metrics.tasks_failed(), 1u);
  EXPECT_DOUBLE_EQ(metrics.core_utilization(4), 0.0);
}

TEST(RunMetrics, EmptyMetricsAreZero) {
  RunMetrics metrics;
  EXPECT_DOUBLE_EQ(metrics.peak_throughput(), 0.0);
  EXPECT_DOUBLE_EQ(metrics.core_utilization(100), 0.0);
  EXPECT_DOUBLE_EQ(metrics.makespan(), 0.0);
}

}  // namespace
}  // namespace flotilla::analytics
