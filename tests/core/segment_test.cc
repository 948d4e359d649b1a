#include "core/segment.h"

#include <gtest/gtest.h>

namespace lss {
namespace {

constexpr uint32_t kCap = 16384;

TEST(SegmentTest, StartsFree) {
  Segment s(kCap);
  EXPECT_EQ(s.state(), SegmentState::kFree);
  EXPECT_EQ(s.live_count(), 0u);
  EXPECT_EQ(s.available_bytes(), kCap);
}

TEST(SegmentTest, OpenAppendSealLifecycle) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 10);
  EXPECT_EQ(s.state(), SegmentState::kOpen);
  EXPECT_EQ(s.open_time(), 10u);

  const uint32_t idx = s.Append(7, 4096, /*up2=*/5.0, /*exact_upf=*/0.0);
  EXPECT_EQ(idx, 0u);
  EXPECT_EQ(s.live_count(), 1u);
  EXPECT_EQ(s.live_bytes(), 4096u);
  EXPECT_EQ(s.available_bytes(), kCap - 4096);

  s.Seal(20);
  EXPECT_EQ(s.state(), SegmentState::kSealed);
  EXPECT_EQ(s.seal_time(), 20u);
  EXPECT_DOUBLE_EQ(s.up2(), 5.0);
}

TEST(SegmentTest, SealedUp2IsMeanOfAppendedPages) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  s.Append(1, 4096, 10.0, 0.0);
  s.Append(2, 4096, 20.0, 0.0);
  s.Append(3, 4096, 60.0, 0.0);
  s.Seal(100);
  EXPECT_DOUBLE_EQ(s.up2(), 30.0);
}

TEST(SegmentTest, Up2EstimateTracksOpenSegment) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  EXPECT_DOUBLE_EQ(s.Up2Estimate(), 0.0);
  s.Append(1, 4096, 8.0, 0.0);
  EXPECT_DOUBLE_EQ(s.Up2Estimate(), 8.0);
  s.Append(2, 4096, 16.0, 0.0);
  EXPECT_DOUBLE_EQ(s.Up2Estimate(), 12.0);
  s.Seal(50);
  EXPECT_DOUBLE_EQ(s.Up2Estimate(), s.up2());
}

TEST(SegmentTest, KillUpdatesCounters) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  const uint32_t a = s.Append(1, 4096, 0, 0);
  const uint32_t b = s.Append(2, 8192, 0, 0);
  s.Seal(1);
  s.Kill(a, 0);
  EXPECT_EQ(s.live_count(), 1u);
  EXPECT_EQ(s.live_bytes(), 8192u);
  EXPECT_EQ(s.entries()[a].page, kInvalidPage);
  EXPECT_EQ(s.entries()[b].page, 2u);
  s.Kill(b, 0);
  EXPECT_EQ(s.live_count(), 0u);
  EXPECT_DOUBLE_EQ(s.Emptiness(), 1.0);
}

TEST(SegmentTest, EmptinessIsAOverB) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  s.Append(1, kCap / 4, 0, 0);
  s.Seal(1);
  EXPECT_DOUBLE_EQ(s.Emptiness(), 0.75);
}

TEST(SegmentTest, VariableSizePagesAccounting) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  s.Append(1, 100, 0, 0);
  s.Append(2, 5000, 0, 0);
  s.Append(3, 64, 0, 0);
  EXPECT_EQ(s.live_bytes(), 5164u);
  EXPECT_TRUE(s.HasRoomFor(kCap - 5164));
  EXPECT_FALSE(s.HasRoomFor(kCap - 5164 + 1));
}

TEST(SegmentTest, ExactUpfSumTracksLivePages) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  const uint32_t a = s.Append(1, 4096, 0, 2.5);
  s.Append(2, 4096, 0, 0.5);
  EXPECT_DOUBLE_EQ(s.exact_upf_sum(), 3.0);
  s.Kill(a, 2.5);
  EXPECT_DOUBLE_EQ(s.exact_upf_sum(), 0.5);
}

TEST(SegmentTest, ResetReturnsToFree) {
  Segment s(kCap);
  s.Open(3, SegmentSource::kGc, 5);
  s.Append(1, 4096, 0, 0);
  s.Seal(9);
  s.Reset();
  EXPECT_EQ(s.state(), SegmentState::kFree);
  EXPECT_EQ(s.log(), 0u);
  EXPECT_EQ(s.live_count(), 0u);
  EXPECT_TRUE(s.entries().empty());
  EXPECT_EQ(s.available_bytes(), kCap);
}

TEST(SegmentTest, ReopenAfterResetIsClean) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  s.Append(1, 4096, 42.0, 1.0);
  s.Seal(1);
  s.Reset();
  s.Open(1, SegmentSource::kGc, 7);
  EXPECT_EQ(s.source(), SegmentSource::kGc);
  EXPECT_EQ(s.log(), 1u);
  EXPECT_DOUBLE_EQ(s.Up2Estimate(), 0.0);
  EXPECT_DOUBLE_EQ(s.exact_upf_sum(), 0.0);
}

TEST(SegmentTest, CountersConsistentUnderChurn) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  std::vector<uint32_t> idx;
  for (int i = 0; i < 4; ++i) idx.push_back(s.Append(i, 4096, i, 0));
  s.Seal(4);
  s.Kill(idx[1], 0);
  s.Kill(idx[3], 0);
  EXPECT_TRUE(s.CheckCountersConsistent());
}

// A reused slot keeps its entry storage across Reset, but its next fill
// starts from a clean slate.
TEST(SegmentTest, ReuseAfterResetStartsAtOffsetZero) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  for (PageId p = 0; p < kCap / 4096; ++p) s.Append(p, 4096, 1.0, 0);
  s.Kill(1, 0);
  s.Seal(5);
  s.Reset();
  s.Open(2, SegmentSource::kGc, 9);
  EXPECT_TRUE(s.entries().empty());
  EXPECT_TRUE(s.CheckCountersConsistent());
  EXPECT_EQ(s.live_count(), 0u);
  const uint32_t first = s.Append(40, 1024, 2.0, 0);
  const uint32_t second = s.Append(41, 2048, 2.0, 0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(s.entries()[first].offset, 0u);
  EXPECT_EQ(s.entries()[second].offset, 1024u);
  EXPECT_EQ(s.live_count(), 2u);
  EXPECT_TRUE(s.CheckCountersConsistent());
}

}  // namespace
}  // namespace lss
