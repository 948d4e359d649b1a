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
  EXPECT_EQ(s.live_page(a), kInvalidPage);
  EXPECT_EQ(s.live_page(b), 2u);
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
  EXPECT_EQ(s.entry_count(), 0u);
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
  EXPECT_EQ(s.entry_count(), 0u);
  EXPECT_TRUE(s.CheckCountersConsistent());
  EXPECT_EQ(s.live_count(), 0u);
  const uint32_t first = s.Append(40, 1024, 2.0, 0);
  const uint32_t second = s.Append(41, 2048, 2.0, 0);
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(s.entry_offset(first), 0u);
  EXPECT_EQ(s.entry_offset(second), 1024u);
  EXPECT_EQ(s.live_count(), 2u);
  EXPECT_TRUE(s.CheckCountersConsistent());
}

// The record form of each entry state, as seal and checkpoint records
// carry it: a live entry and an in-place kill are recorded live under
// their own id, a dead-on-arrival kill and a recovered-dead entry are
// recorded dead. Mixed sizes make the offsets non-trivial.
TEST(SegmentTest, RecordFormOfEveryEntryState) {
  Segment s(kCap);
  s.Open(0, SegmentSource::kUser, 0);
  const uint32_t live = s.Append(11, 1000, 3.0, 0.25, 7, 70);
  const uint32_t killed = s.Append(12, 2048, 5.0, 0.5, 8, 80);
  const uint32_t doa = s.Append(13, 4096, 9.0, 0.75, 9, 90);
  const uint32_t dead = s.AppendDead(512, 11.0);
  s.Kill(killed, 0.5);
  s.Kill(doa, 0.75, /*dead_on_arrival=*/true);
  ASSERT_EQ(live, 0u);
  ASSERT_EQ(dead, 3u);

  // Appended after what `out` already holds.
  std::vector<Segment::Entry> out(1);
  s.AppendRecordEntries(&out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].page, kInvalidPage);
  const std::vector<Segment::Entry> appended(out.begin() + 1, out.end());
  std::vector<Segment::Entry> one_by_one;
  for (uint32_t i = 0; i < s.entry_count(); ++i) {
    one_by_one.push_back(s.RecordEntry(i));
  }
  const Segment::Entry want[] = {
      {11, 1000, 7, 70, 3.0, 0.25, 0, 11, false},
      {12, 2048, 8, 80, 5.0, 0.5, 1000, 12, false},
      {kInvalidPage, 4096, 9, 90, 9.0, 0.75, 3048, 13, true},
      {kInvalidPage, 512, 0, 0, 11.0, 0.0, 7144, kInvalidPage, false},
  };
  const std::vector<Segment::Entry>* const forms[] = {&appended, &one_by_one};
  for (const std::vector<Segment::Entry>* got : forms) {
    ASSERT_EQ(got->size(), 4u);
    for (size_t i = 0; i < got->size(); ++i) {
      const Segment::Entry& g = (*got)[i];
      const Segment::Entry& w = want[i];
      EXPECT_EQ(g.page, w.page) << "entry " << i;
      EXPECT_EQ(g.bytes, w.bytes) << "entry " << i;
      EXPECT_EQ(g.seq, w.seq) << "entry " << i;
      EXPECT_EQ(g.last_update, w.last_update) << "entry " << i;
      EXPECT_EQ(g.up2, w.up2) << "entry " << i;
      EXPECT_EQ(g.exact_upf, w.exact_upf) << "entry " << i;
      EXPECT_EQ(g.offset, w.offset) << "entry " << i;
      EXPECT_EQ(g.orig_page, w.orig_page) << "entry " << i;
      EXPECT_EQ(g.doa, w.doa) << "entry " << i;
    }
  }
  // Only live entries read back as live.
  EXPECT_EQ(s.live_page(live), 11u);
  EXPECT_EQ(s.live_page(killed), kInvalidPage);
  EXPECT_EQ(s.live_page(doa), kInvalidPage);
  EXPECT_EQ(s.live_page(dead), kInvalidPage);
  EXPECT_TRUE(s.CheckCountersConsistent());
}

}  // namespace
}  // namespace lss
