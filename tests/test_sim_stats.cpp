// Unit tests for statistics collection.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace ppfs::sim {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, MeanMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 6.0, 8.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
  EXPECT_DOUBLE_EQ(s.sum(), 20.0);
  EXPECT_EQ(s.count(), 4u);
}

TEST(RunningStats, VarianceMatchesTwoPass) {
  RunningStats s;
  const double xs[] = {1.0, 2.5, 3.7, 4.4, 9.1, 0.3};
  double mean = 0;
  for (double x : xs) mean += x;
  mean /= 6;
  double var = 0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= 5;
  for (double x : xs) s.add(x);
  EXPECT_NEAR(s.variance(), var, 1e-12);
}

TEST(RunningStats, MergeEqualsCombined) {
  RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    double x = std::sin(i) * 10;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(SampleSet, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 100.0);
  EXPECT_NEAR(s.median(), 50.5, 1e-9);
  EXPECT_NEAR(s.percentile(90), 90.1, 1e-9);
}

TEST(SampleSet, AddAfterPercentileResorts) {
  SampleSet s;
  s.add(10);
  s.add(20);
  EXPECT_DOUBLE_EQ(s.max(), 20.0);
  s.add(5);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
}

TEST(Histogram, BinsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.99);
  h.add(-5.0);   // clamps to first bin
  h.add(100.0);  // clamps to last bin
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bin_count(0), 2u);
  EXPECT_EQ(h.bin_count(9), 2u);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 2.0, 2);
  h.add(0.5);
  h.add(0.6);
  h.add(1.5);
  auto art = h.ascii(10);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(TimeWeighted, AverageOfStepSignal) {
  TimeWeighted tw;
  tw.record(0.0, 2.0);   // value 2 over [0, 4)
  tw.record(4.0, 6.0);   // value 6 over [4, 8)
  EXPECT_DOUBLE_EQ(tw.average(8.0), 4.0);
  EXPECT_DOUBLE_EQ(tw.current(), 6.0);
}

TEST(ByteLiterals, Convert) {
  EXPECT_EQ(64_KiB, 65536u);
  EXPECT_EQ(1_MiB, 1048576u);
  EXPECT_EQ(2_GiB, 2147483648u);
}

TEST(Throughput, MegabytesPerSecond) {
  EXPECT_DOUBLE_EQ(megabytes_per_second(10'000'000, 2.0), 5.0);
  EXPECT_DOUBLE_EQ(megabytes_per_second(1, 0.0), 0.0);
}

}  // namespace
}  // namespace ppfs::sim
