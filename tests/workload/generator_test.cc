#include "workload/generator.h"

#include <vector>

#include <gtest/gtest.h>

#include "workload/zipfian_workload.h"

namespace lss {
namespace {

TEST(UniformWorkloadTest, Basics) {
  UniformWorkload w(100);
  EXPECT_EQ(w.NumPages(), 100u);
  EXPECT_EQ(w.name(), "uniform");
  EXPECT_DOUBLE_EQ(w.ExactFrequency(0), 1.0);
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(w.NextPage(rng), 100u);
}

TEST(UniformWorkloadTest, CoversAllPages) {
  UniformWorkload w(10);
  Rng rng(2);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 10000; ++i) counts[w.NextPage(rng)]++;
  for (int c : counts) EXPECT_GT(c, 700);
}

TEST(HotColdWorkloadTest, EightyTwentyGeometry) {
  HotColdWorkload w(1000, 0.8);
  EXPECT_EQ(w.NumPages(), 1000u);
  EXPECT_EQ(w.hot_pages(), 200u);  // 20% of the data
  EXPECT_EQ(w.name(), "hot-cold 80-20");
}

TEST(HotColdWorkloadTest, FrequenciesNormalisedToMeanOne) {
  for (double m : {0.5, 0.6, 0.7, 0.8, 0.9}) {
    HotColdWorkload w(1000, m);
    double sum = 0;
    for (PageId p = 0; p < 1000; ++p) sum += w.ExactFrequency(p);
    EXPECT_NEAR(sum / 1000.0, 1.0, 1e-9) << "m=" << m;
  }
}

TEST(HotColdWorkloadTest, HotPagesHotterThanCold) {
  HotColdWorkload w(1000, 0.8);
  EXPECT_DOUBLE_EQ(w.ExactFrequency(0), 4.0);      // 0.8/0.2
  EXPECT_DOUBLE_EQ(w.ExactFrequency(999), 0.25);   // 0.2/0.8
}

TEST(HotColdWorkloadTest, UpdateMassMatchesM) {
  HotColdWorkload w(1000, 0.8);
  Rng rng(3);
  int hot_hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    hot_hits += (w.NextPage(rng) < w.hot_pages());
  }
  EXPECT_NEAR(hot_hits / static_cast<double>(kDraws), 0.8, 0.01);
}

TEST(HotColdWorkloadTest, FiftyFiftyIsUniform) {
  HotColdWorkload w(1000, 0.5);
  EXPECT_NEAR(w.ExactFrequency(0), 1.0, 1e-9);
  EXPECT_NEAR(w.ExactFrequency(999), 1.0, 1e-9);
}

TEST(ZipfianWorkloadTest, FrequenciesNormalisedToMeanOne) {
  ZipfianWorkload w(5000, 0.99);
  double sum = 0;
  for (PageId p = 0; p < 5000; ++p) sum += w.ExactFrequency(p);
  EXPECT_NEAR(sum / 5000.0, 1.0, 1e-9);
}

TEST(ZipfianWorkloadTest, ExactFrequencyMatchesSampling) {
  // The oracle must agree with what the sampler actually draws,
  // including scatter collisions.
  constexpr uint64_t kN = 500;
  ZipfianWorkload w(kN, 1.35);
  Rng rng(11);
  constexpr int kDraws = 400000;
  std::vector<int> counts(kN, 0);
  for (int i = 0; i < kDraws; ++i) counts[w.NextPage(rng)]++;
  // Check the pages with the largest oracle frequency.
  for (PageId p = 0; p < kN; ++p) {
    if (w.ExactFrequency(p) < 5.0) continue;
    const double expected = w.ExactFrequency(p) / kN * kDraws;
    EXPECT_NEAR(counts[p], expected, expected * 0.15 + 40) << "page " << p;
  }
}

TEST(ZipfianWorkloadTest, NameIncludesTheta) {
  ZipfianWorkload w(100, 0.99);
  EXPECT_EQ(w.name(), "zipfian theta=0.99");
}

TEST(ZipfianWorkloadTest, HigherThetaMoreConcentrated) {
  ZipfianWorkload a(2000, 0.99), b(2000, 1.35);
  double max_a = 0, max_b = 0;
  for (PageId p = 0; p < 2000; ++p) {
    max_a = std::max(max_a, a.ExactFrequency(p));
    max_b = std::max(max_b, b.ExactFrequency(p));
  }
  EXPECT_GT(max_b, max_a);
}

}  // namespace
}  // namespace lss
