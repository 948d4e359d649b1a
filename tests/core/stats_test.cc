#include "core/stats.h"

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "core/sharded_store.h"
#include "util/rng.h"

namespace lss {
namespace {

TEST(StoreStatsTest, WampDefinition) {
  StoreStats s;
  EXPECT_EQ(s.WriteAmplification(), 0.0);  // no division by zero
  s.user_pages_written = 100;
  s.gc_pages_written = 150;
  EXPECT_DOUBLE_EQ(s.WriteAmplification(), 1.5);
}

TEST(StoreStatsTest, ResetMeasurementZeroesEverything) {
  StoreStats s;
  s.user_updates = 1;
  s.user_pages_written = 2;
  s.gc_pages_written = 3;
  s.segments_cleaned = 4;
  s.cleanings = 5;
  s.deletes = 6;
  s.mutable_clean_emptiness().Add(0.5);
  s.seal_queue_enqueued = 7;
  s.seal_queue_stalls = 8;
  s.group_fsyncs = 9;
  s.group_fsync_ops = 10;
  s.checkpoints_written = 11;
  s.ResetMeasurement();
  EXPECT_EQ(s.user_updates, 0u);
  EXPECT_EQ(s.user_pages_written, 0u);
  EXPECT_EQ(s.gc_pages_written, 0u);
  EXPECT_EQ(s.segments_cleaned, 0u);
  EXPECT_EQ(s.cleanings, 0u);
  EXPECT_EQ(s.deletes, 0u);
  EXPECT_EQ(s.seal_queue_enqueued, 0u);
  EXPECT_EQ(s.seal_queue_stalls, 0u);
  EXPECT_EQ(s.group_fsyncs, 0u);
  EXPECT_EQ(s.group_fsync_ops, 0u);
  EXPECT_EQ(s.checkpoints_written, 0u);
  EXPECT_EQ(s.clean_emptiness().count(), 0u);
  EXPECT_EQ(s.MeanCleanEmptiness(), 0.0);
}

TEST(StoreStatsTest, MergeCoversPipelineCounters) {
  StoreStats a, b;
  a.seal_queue_enqueued = 1;
  a.group_fsyncs = 2;
  b.seal_queue_enqueued = 3;
  b.seal_queue_stalls = 4;
  b.group_fsyncs = 5;
  b.group_fsync_ops = 6;
  b.checkpoints_written = 7;
  a.Merge(b);
  EXPECT_EQ(a.seal_queue_enqueued, 4u);
  EXPECT_EQ(a.seal_queue_stalls, 4u);
  EXPECT_EQ(a.group_fsyncs, 7u);
  EXPECT_EQ(a.group_fsync_ops, 6u);
  EXPECT_EQ(a.checkpoints_written, 7u);
}

// End-to-end accounting identity: measured Wamp must equal the ratio
// implied by the mean emptiness at clean time, Wamp ~= (1-E)/E scaled by
// the cleaned volume, and the counters must balance: every segment
// cleaned contributed its live pages to gc_pages_written.
TEST(StoreStatsTest, CleaningCountersBalance) {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 64;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  auto store = ShardedStore::Create(
      c, 1, [] { return MakePolicy(Variant::kGreedy); });
  const uint64_t user_pages = c.UserPagesForFillFactor(0.7);
  Rng rng(5);
  for (PageId p = 0; p < user_pages; ++p) ASSERT_TRUE(store->Write(p).ok());
  for (uint64_t i = 0; i < 10 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  const StoreStats& s = store->shard(0).stats();
  ASSERT_GT(s.segments_cleaned, 0u);
  // gc moves = sum over cleaned segments of live pages
  //          = segments_cleaned * S * (1 - mean E)   (all pages 4 KB).
  const double pages_per_seg = 16.0;
  const double expected_moves = static_cast<double>(s.segments_cleaned) *
                                pages_per_seg *
                                (1.0 - s.MeanCleanEmptiness());
  EXPECT_NEAR(static_cast<double>(s.gc_pages_written), expected_moves,
              expected_moves * 0.02);
  // Histogram saw exactly one sample per cleaned segment.
  EXPECT_EQ(s.clean_emptiness().count(), s.segments_cleaned);
  // Every logical update became a physical write (no buffer).
  EXPECT_EQ(s.user_updates, s.user_pages_written);
}

// Warm-up then measure: the measured-phase Wamp must not depend on the
// counters accumulated before ResetMeasurement.
TEST(StoreStatsTest, MeasurementWindowIsolated) {
  StoreConfig c;
  c.page_bytes = 4096;
  c.segment_bytes = 16 * 4096;
  c.num_segments = 64;
  c.clean_trigger_segments = 2;
  c.clean_batch_segments = 4;
  c.write_buffer_segments = 0;
  c.separate_user_writes = false;
  c.separate_gc_writes = false;
  auto store = ShardedStore::Create(
      c, 1, [] { return MakePolicy(Variant::kAge); });
  const uint64_t user_pages = c.UserPagesForFillFactor(0.6);
  Rng rng(6);
  for (PageId p = 0; p < user_pages; ++p) ASSERT_TRUE(store->Write(p).ok());
  for (uint64_t i = 0; i < 5 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  store->shard(0).mutable_stats().ResetMeasurement();
  EXPECT_EQ(store->shard(0).stats().WriteAmplification(), 0.0);
  for (uint64_t i = 0; i < 5 * user_pages; ++i) {
    ASSERT_TRUE(store->Write(rng.NextBounded(user_pages)).ok());
  }
  EXPECT_GT(store->shard(0).stats().WriteAmplification(), 0.0);
  EXPECT_EQ(store->shard(0).stats().user_updates, 5 * user_pages);
}

}  // namespace
}  // namespace lss
