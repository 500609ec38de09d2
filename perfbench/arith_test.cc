// Pins the arithmetic the benchmark's metrics rest on.
#include "arith.h"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

namespace perfbench {
namespace {

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> v = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
  // Type 7: h = (n - 1) q = 2.97 -> 3 + 0.97 * (4 - 3).
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 3.97);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(supported_tail_percentile(0), 50.0);
  EXPECT_EQ(supported_tail_percentile(99), 50.0);
  EXPECT_EQ(supported_tail_percentile(100), 90.0);
  EXPECT_EQ(supported_tail_percentile(999), 90.0);
  EXPECT_EQ(supported_tail_percentile(1000), 99.0);
  EXPECT_EQ(supported_tail_percentile(10000), 99.9);
}

TEST(Percentile, SummaryCarriesItsSampleCount) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  const TimingSummary s = summarize(v);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.median, 500.5);
  EXPECT_EQ(s.tail_percentile, 99.0);
  EXPECT_NEAR(s.tail, 990.01, 1e-9);

  const TimingSummary small = summarize({5.0, 1.0, 3.0});
  EXPECT_EQ(small.count, 3u);
  EXPECT_EQ(small.tail_percentile, 50.0);
  EXPECT_DOUBLE_EQ(small.tail, small.median);
}

TEST(FailedFrac, DividesByTheAttemptedBase) {
  EXPECT_DOUBLE_EQ(failed_frac(0, 1234), 0.0);
  EXPECT_DOUBLE_EQ(failed_frac(3, 12), 0.25);
  // A failed check may charge more operations than remain; the rate caps
  // at 1.
  EXPECT_DOUBLE_EQ(failed_frac(20, 12), 1.0);
  EXPECT_THROW(failed_frac(0, 0), std::invalid_argument);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // 1: [0, 100); children 2: [10, 30), 3: [20, 50) overlap (two threads),
  // 4: [90, 120) sticks out of the parent; 5: [40, 45) is 3's child.
  const std::vector<Span> spans = {
      {"pass", 0, 0, 100, 0},   {"replicate", 1, 10, 30, 1},
      {"replicate", 1, 20, 50, 2}, {"report", 1, 90, 120, 0},
      {"inner", 3, 40, 45, 2},
  };
  const std::vector<std::uint64_t> self = self_times_ns(spans);
  ASSERT_EQ(self.size(), 5u);
  EXPECT_EQ(self[0], 100u - 40u - 10u);  // [10, 50) and [90, 100).
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 30u - 5u);
  EXPECT_EQ(self[3], 30u);
  EXPECT_EQ(self[4], 5u);
}

TEST(FanoutUtilization, BusyOverWorkersTimesWall) {
  const std::vector<Span> spans = {
      {"fanout", 0, 0, 100, 0},   {"replicate", 1, 0, 100, 1},
      {"replicate", 1, 0, 50, 2}, {"fanout", 0, 200, 300, 0},
      {"replicate", 4, 200, 300, 1},
  };
  // (100 + 50 + 100) / (2 workers * (100 + 100)).
  EXPECT_DOUBLE_EQ(fanout_utilization(spans, {1, 4}, 2), 250.0 / 400.0);
  EXPECT_DOUBLE_EQ(fanout_utilization(spans, {1}, 2), 150.0 / 200.0);
  EXPECT_DOUBLE_EQ(fanout_utilization(spans, {}, 2), 0.0);
}

TEST(RunLoop, RunTimePerRoundMinusStepTimePerStep) {
  // 1000 rounds in 500 us of run(); 4000 steps in 1600 us of step().
  EXPECT_DOUBLE_EQ(run_loop_ns_per_round(500'000.0, 1000, 1'600'000.0, 4000),
                   500.0 - 400.0);
  EXPECT_LT(run_loop_ns_per_round(100.0, 1, 200.0, 1), 0.0);
  EXPECT_TRUE(std::isnan(run_loop_ns_per_round(1.0, 0, 1.0, 1)));
}

TEST(KernelBytes, ComputedFromThePlaneLayout) {
  EXPECT_DOUBLE_EQ(kernel_computed_bytes_per_step(3), 0.25 + 24.0);
}

TEST(Residual, AcceptsUnitNormalMovesAndFlagsBias) {
  ResidualCheck good;
  // Residuals alternating +-1: mean 0, mean square 1.
  for (int i = 0; i < 1000; ++i) good.add(i % 2 == 0 ? 11.0 : 9.0, 10.0, 1.0);
  EXPECT_TRUE(good.ok());
  EXPECT_DOUBLE_EQ(good.z(), 0.0);
  EXPECT_DOUBLE_EQ(good.mean_square(), 1.0);

  ResidualCheck biased;  // Every move half a standard deviation high.
  for (int i = 0; i < 1000; ++i) {
    biased.add(i % 2 == 0 ? 11.5 : 9.5, 10.0, 1.0);
  }
  EXPECT_GT(biased.z(), ResidualCheck::kMaxZ);
  EXPECT_FALSE(biased.ok());

  ResidualCheck outlier = good;
  outlier.add(18.0, 10.0, 1.0);  // |r| = 8 > kMaxAbs.
  EXPECT_EQ(outlier.outliers(), 1u);
  EXPECT_FALSE(outlier.ok());

  ResidualCheck degenerate;
  EXPECT_FALSE(degenerate.add(1.0, 1.0, 0.0));
  EXPECT_FALSE(degenerate.ok());  // Nothing checked is not a pass.
}

TEST(MeanWithin, FiveStandardErrors) {
  EXPECT_TRUE(mean_within(105.0, 1.0, 100, 100.0));
  EXPECT_FALSE(mean_within(105.1, 1.0, 100, 100.0));
  EXPECT_FALSE(mean_within(100.0, 0.0, 100, 100.0));
  EXPECT_FALSE(mean_within(100.0, 1.0, 1, 100.0));
}

}  // namespace
}  // namespace perfbench
