// Tests of the benchmark's own arithmetic (src/stats.h).

#include "stats.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(QuantileTest, NearestRank) {
  const std::vector<double> v = {5, 1, 4, 2, 3};
  EXPECT_EQ(Quantile(v, 0.0), 1);
  EXPECT_EQ(Quantile(v, 0.5), 3);
  EXPECT_EQ(Quantile(v, 0.8), 4);
  EXPECT_EQ(Quantile(v, 0.81), 5);
  EXPECT_EQ(Quantile(v, 1.0), 5);
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Median({2, 1}), 1);  // Nearest rank: ⌈0.5·2⌉ = 1st.
}

TEST(QuantileTest, InterquartileMeanDropsTheOuterQuarters) {
  // Sorted: 1 2 3 4 5 6 7 100; Q1 is the 2nd, Q3 the 6th.
  EXPECT_DOUBLE_EQ(InterquartileMean({100, 1, 7, 2, 6, 3, 5, 4}),
                   (2 + 3 + 4 + 5 + 6) / 5.0);
  EXPECT_DOUBLE_EQ(InterquartileMean({3}), 3);
  EXPECT_EQ(InterquartileMean({}), 0);
}

TEST(QuantileTest, SamplesBeyondRank) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);  // Rank ⌈989.01⌉ = 990.
  EXPECT_EQ(SamplesBeyond(100, 0.99), 1u);
  EXPECT_EQ(SamplesBeyond(0, 0.5), 0u);
}

TEST(QuantileTest, HighestSupportedPercentileHasTenBeyond) {
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(100000), 0.9999);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(99999), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(10000), 0.999);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(9999), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(1000), 0.99);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(100), 0.9);
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(40), 0.75);
  // Too few samples for any tail: the median is all that is reported.
  EXPECT_DOUBLE_EQ(HighestSupportedQuantile(8), 0.5);
  for (size_t n : {50u, 1234u, 20000u}) {
    EXPECT_GE(SamplesBeyond(n, HighestSupportedQuantile(n)), 10u) << n;
  }
}

TEST(PoissonScheduleTest, SameSeedSameSchedule) {
  const auto a = PoissonSchedule(42, 2000.0, 2.0);
  const auto b = PoissonSchedule(42, 2000.0, 2.0);
  ASSERT_EQ(a, b);
  EXPECT_NE(a, PoissonSchedule(43, 2000.0, 2.0));
  // Increasing, inside the window, and near the offered count.
  for (size_t i = 1; i < a.size(); ++i) EXPECT_GT(a[i], a[i - 1]);
  EXPECT_LT(a.back(), 2.0);
  EXPECT_NEAR(static_cast<double>(a.size()), 4000.0, 4 * 64.0);
  EXPECT_TRUE(PoissonSchedule(1, 0.0, 1.0).empty());
}

TEST(SelfTimeTest, DurationMinusCoveredChildTime) {
  const std::vector<SpanRecord> spans = {
      {"fold", 0, 100, 1},   // Children cover [10,40) and [50,90).
      {"train", 10, 30, 1},  // Child covers [15,25).
      {"batch", 15, 10, 1},
      {"lr", 50, 40, 1},
      {"other", 0, 100, 2},  // Another thread: not a child of "fold".
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 30 - 40);
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 10);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 100);
}

TEST(SelfTimeTest, ChildrenAreClippedToTheParent) {
  // Timestamps are rounded per span, so a child can end past its parent.
  const std::vector<SpanRecord> spans = {
      {"child", 40, 20, 1},
      {"parent", 0, 50, 1},
      {"next", 60, 5, 1},  // Starts after the parent: not its child.
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[1], 50 - 10);  // Only [40,50) is covered.
  EXPECT_EQ(self[0], 20);
  EXPECT_EQ(self[2], 5);
}

TEST(GroupFoldedStacksTest, NearestMatchingFrameToTheLeafWins) {
  const std::vector<FrameGroup> groups = {
      {"gemm", {"MulInto"}},
      {"map", {"rll::Map", "tanh"}},
      {"autograd", {"rll::ag::"}},
  };
  const std::string folded =
      "span:batch;main;rll::ag::Backward();rll::MulInto(a, b) 7\n"
      "span:batch;main;rll::ag::Tanh();rll::Map(f);__tanh_fma 5\n"
      "span:batch;main;rll::ag::Backward();memcpy 3\n"
      "span:(none);main;malloc 2\n"
      "span:batch;rll::MulInto(x);span:inner 1\n";
  const auto counts = GroupFoldedStacks(folded, groups);
  EXPECT_EQ(counts.at("gemm"), 7u + 1u);  // "span:" frames are skipped.
  EXPECT_EQ(counts.at("map"), 5u);
  EXPECT_EQ(counts.at("autograd"), 3u);
  EXPECT_EQ(counts.at("other"), 2u);
  EXPECT_EQ(counts.at("total"), 18u);
}

}  // namespace
}  // namespace perfbench
