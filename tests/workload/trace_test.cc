#include "workload/trace.h"

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/store_shard.h"
#include "util/rng.h"

namespace lss {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(TraceTest, AppendAndInspect) {
  Trace t;
  EXPECT_TRUE(t.Empty());
  t.AppendWrite(3, 4096);
  t.AppendWrite(1);
  t.AppendDelete(3);
  EXPECT_EQ(t.Size(), 3u);
  EXPECT_EQ(t.records()[0].op, TraceRecord::Op::kWrite);
  EXPECT_EQ(t.records()[0].bytes, 4096u);
  EXPECT_EQ(t.records()[2].op, TraceRecord::Op::kDelete);
  EXPECT_EQ(t.MaxPageId(), 4u);
}

TEST(TraceTest, MaxPageIdOfEmptyTrace) {
  Trace t;
  EXPECT_EQ(t.MaxPageId(), 0u);
}

TEST(TraceTest, SaveLoadRoundTrip) {
  Trace t;
  for (PageId p = 0; p < 100; ++p) t.AppendWrite(p % 7, 4096);
  t.AppendDelete(3);
  const std::string path = TempPath("trace_roundtrip.bin");
  ASSERT_TRUE(t.SaveTo(path));

  Trace loaded;
  ASSERT_TRUE(loaded.LoadFrom(path));
  ASSERT_EQ(loaded.Size(), t.Size());
  for (size_t i = 0; i < t.Size(); ++i) {
    EXPECT_EQ(loaded.records()[i].op, t.records()[i].op);
    EXPECT_EQ(loaded.records()[i].page, t.records()[i].page);
    EXPECT_EQ(loaded.records()[i].bytes, t.records()[i].bytes);
  }
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsGarbage) {
  const std::string path = TempPath("trace_garbage.bin");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a trace", f);
  std::fclose(f);
  Trace t;
  EXPECT_FALSE(t.LoadFrom(path));
  EXPECT_TRUE(t.Empty());
  std::remove(path.c_str());
}

TEST(TraceTest, LoadRejectsMissingFile) {
  Trace t;
  EXPECT_FALSE(t.LoadFrom(TempPath("does_not_exist.bin")));
}

TEST(TraceTest, ExactFrequenciesNormalised) {
  Trace t;
  // Page 0 written 6 times, page 1 written 2 times: mean over touched
  // pages must be 1, ratios preserved.
  for (int i = 0; i < 6; ++i) t.AppendWrite(0);
  for (int i = 0; i < 2; ++i) t.AppendWrite(1);
  auto freq = t.ComputeExactFrequencies(0, t.Size());
  ASSERT_EQ(freq.size(), 2u);
  EXPECT_NEAR((freq[0] + freq[1]) / 2.0, 1.0, 1e-9);
  EXPECT_NEAR(freq[0] / freq[1], 3.0, 1e-9);
}

TEST(TraceTest, ExactFrequenciesWindowed) {
  Trace t;
  t.AppendWrite(0);  // outside the window
  t.AppendWrite(1);
  t.AppendWrite(1);
  auto freq = t.ComputeExactFrequencies(1, t.Size());
  // Page 0 does not appear in the window but must still get a positive
  // (small) frequency so oracles never return zero for replayed pages.
  EXPECT_GT(freq[0], 0.0);
  EXPECT_LT(freq[0], freq[1]);
}

TEST(TraceTest, DeletesIgnoredInFrequencies) {
  Trace t;
  t.AppendWrite(0);
  t.AppendDelete(0);
  t.AppendDelete(0);
  auto freq = t.ComputeExactFrequencies(0, t.Size());
  EXPECT_NEAR(freq[0], 1.0, 1e-9);
}

TEST(SplitTraceTest, PartitionsByShardPreservingOrder) {
  Trace t;
  Rng rng(77);
  for (int i = 0; i < 5000; ++i) {
    const PageId p = rng.NextBounded(300);
    if (rng.NextBool(0.05)) {
      t.AppendDelete(p);
    } else {
      t.AppendWrite(p, 100 + (i % 7));
    }
  }
  const uint32_t shards = 4;
  const size_t measure_from = 1200;
  const ShardedTrace st = SplitTrace(t, measure_from, shards);
  ASSERT_TRUE(st.Valid());
  ASSERT_EQ(st.shards, shards);
  ASSERT_EQ(st.sub.size(), shards);
  ASSERT_EQ(st.measure_from.size(), shards);

  // Routing the original trace record by record must visit each
  // sub-trace's records in exactly their stored order, and the per-shard
  // measure boundary must count exactly the prefix records routed there.
  std::vector<size_t> cursor(shards, 0);
  size_t total = 0;
  for (size_t i = 0; i < t.Size(); ++i) {
    const TraceRecord& r = t.records()[i];
    const uint32_t s = PageShard(r.page, shards);
    ASSERT_LT(cursor[s], st.sub[s].Size());
    const TraceRecord& got = st.sub[s].records()[cursor[s]];
    ASSERT_EQ(got.op, r.op) << "record " << i;
    ASSERT_EQ(got.page, r.page) << "record " << i;
    ASSERT_EQ(got.bytes, r.bytes) << "record " << i;
    ++cursor[s];
    if (i + 1 == measure_from) {
      for (uint32_t q = 0; q < shards; ++q) {
        EXPECT_EQ(st.measure_from[q], cursor[q]) << "shard " << q;
      }
    }
  }
  for (uint32_t s = 0; s < shards; ++s) {
    EXPECT_EQ(cursor[s], st.sub[s].Size()) << "shard " << s;
    total += st.sub[s].Size();
  }
  EXPECT_EQ(total, t.Size());
}

TEST(SplitTraceTest, SingleShardIsIdentity) {
  Trace t;
  for (PageId p = 0; p < 20; ++p) t.AppendWrite(p);
  const ShardedTrace st = SplitTrace(t, 5, 1);
  ASSERT_TRUE(st.Valid());
  ASSERT_EQ(st.sub.size(), 1u);
  EXPECT_EQ(st.sub[0].Size(), t.Size());
  EXPECT_EQ(st.measure_from[0], 5u);
}

TEST(SplitTraceTest, MeasureBoundaryEdges) {
  Trace t;
  for (PageId p = 0; p < 40; ++p) t.AppendWrite(p);
  // measure_from == 0: every shard measures from its first record.
  const ShardedTrace all = SplitTrace(t, 0, 4);
  for (uint32_t s = 0; s < 4; ++s) EXPECT_EQ(all.measure_from[s], 0u);
  // measure_from past the end (clamped): nothing is measured.
  const ShardedTrace none = SplitTrace(t, t.Size() + 10, 4);
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(none.measure_from[s], none.sub[s].Size()) << "shard " << s;
  }
  // An empty trace still yields a valid (empty) split.
  const ShardedTrace empty = SplitTrace(Trace(), 0, 2);
  EXPECT_TRUE(empty.Valid());
  EXPECT_EQ(empty.sub[0].Size() + empty.sub[1].Size(), 0u);
}

}  // namespace
}  // namespace lss
