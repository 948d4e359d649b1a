#include "core/page_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

namespace lss {
namespace {

TEST(PageLocationTest, DefaultIsAbsent) {
  PageLocation loc;
  EXPECT_FALSE(loc.Present());
  EXPECT_FALSE(loc.InBuffer());
}

TEST(PageLocationTest, BufferSentinel) {
  PageLocation loc{kBufferSegment, 3};
  EXPECT_TRUE(loc.Present());
  EXPECT_TRUE(loc.InBuffer());
}

TEST(PageLocationTest, SegmentLocation) {
  PageLocation loc{7, 12};
  EXPECT_TRUE(loc.Present());
  EXPECT_FALSE(loc.InBuffer());
}

TEST(PageTableTest, EnsureGrowsTable) {
  PageTable t;
  EXPECT_EQ(t.Size(), 0u);
  t.Ensure(9);
  EXPECT_EQ(t.Size(), 10u);
  EXPECT_FALSE(t.Present(9));
  EXPECT_FALSE(t.Present(1000));  // out of range is simply absent
}

TEST(PageTableTest, SetAndLookup) {
  PageTable t;
  PageMeta& m = t.Ensure(4);
  m.loc = PageLocation{2, 5};
  m.bytes = 4096;
  m.last_update = 77;
  EXPECT_TRUE(t.Present(4));
  EXPECT_EQ(t.Get(4).loc.segment, 2u);
  EXPECT_EQ(t.Get(4).loc.index, 5u);
  EXPECT_EQ(t.Get(4).bytes, 4096u);
  EXPECT_EQ(t.Get(4).last_update, 77u);
}

TEST(PageTableTest, CountPresent) {
  PageTable t;
  t.Ensure(10);
  EXPECT_EQ(t.CountPresent(), 0u);
  t.Ensure(3).loc = PageLocation{0, 0};
  t.Ensure(7).loc = PageLocation{kBufferSegment, 1};
  EXPECT_EQ(t.CountPresent(), 2u);
}

TEST(PageTableTest, EnsureIsIdempotent) {
  PageTable t;
  t.Ensure(5).bytes = 123;
  EXPECT_EQ(t.Ensure(5).bytes, 123u);
  EXPECT_EQ(t.Size(), 6u);
}

TEST(PageTableTest, UnwrittenSlotsOfAPublishedChunkReadAbsent) {
  PageTable t;
  t.Ensure(0).loc = PageLocation{1, 2};
  ASSERT_EQ(PageTable::ChunkOf(0), PageTable::ChunkOf(1));
  EXPECT_FALSE(t.Present(1));
  EXPECT_EQ(t.Get(1).bytes, 0u);
  EXPECT_EQ(t.Get(1).last_update, 0u);
}

TEST(PageTableTest, IdsAtOrAboveTheLimitReadAbsent) {
  PageTable t;
  t.Ensure(5).bytes = 9;
  EXPECT_FALSE(t.Present(PageTable::kMaxPages - 1));
  EXPECT_FALSE(t.Present(PageTable::kMaxPages));
  EXPECT_FALSE(t.Present(kInvalidPage));
  EXPECT_EQ(t.Get(kInvalidPage).bytes, 0u);
}

// Chunks are numbered densely in id order. Two threads then publish the
// chunks on either side of every boundary at once: one ensures each
// boundary's last id below, the other its first id above.
TEST(PageTableConcurrencyTest, BothSidesOfEveryChunkBoundary) {
  constexpr PageId kSpan = PageId{1} << 17;
  std::vector<PageId> boundaries;
  for (PageId p = 1; p < kSpan; ++p) {
    const size_t prev = PageTable::ChunkOf(p - 1);
    const size_t cur = PageTable::ChunkOf(p);
    ASSERT_TRUE(cur == prev || cur == prev + 1) << "page " << p;
    if (cur != prev) boundaries.push_back(p);
  }
  ASSERT_GT(boundaries.size(), 16u);  // several chunk sizes are crossed
  EXPECT_EQ(boundaries.front(), 512u);

  PageTable t;
  std::thread below([&] {
    for (PageId b : boundaries) t.Ensure(b - 1).last_update = b - 1;
  });
  std::thread above([&] {
    for (PageId b : boundaries) t.Ensure(b).last_update = b;
  });
  below.join();
  above.join();
  for (PageId b : boundaries) {
    EXPECT_EQ(t.Get(b - 1).last_update, b - 1);
    EXPECT_EQ(t.Get(b).last_update, b);
    EXPECT_EQ(t.Get(b + 1).last_update, 0u) << "page " << b + 1;
  }
  EXPECT_EQ(t.Size(), boundaries.back() + 1);
}

// Eight threads ensure interleaved ids (p = i * kThreads + t), so every
// chunk is published by a race between all of them. Each thread also
// checks that Size() never moves backwards and covers what it ensured.
TEST(PageTableConcurrencyTest, RacingEnsurePublishesEachChunkOnce) {
  PageTable table;
  constexpr uint32_t kThreads = 8;
  constexpr PageId kPerThread = 20000;
  std::atomic<bool> size_ok{true};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&table, &size_ok, t] {
      size_t last_size = 0;
      for (PageId i = 0; i < kPerThread; ++i) {
        const PageId p = i * kThreads + t;
        PageMeta& m = table.Ensure(p);
        m.loc = PageLocation{static_cast<SegmentId>(t), 0};
        m.bytes = 512 + t;
        m.last_update = p + 1;
        const size_t size = table.Size();
        if (size < last_size || size <= p) size_ok = false;
        last_size = size;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_TRUE(size_ok);
  EXPECT_EQ(table.Size(), kThreads * kPerThread);
  EXPECT_EQ(table.CountPresent(), kThreads * kPerThread);
  for (PageId p = 0; p < kThreads * kPerThread; ++p) {
    const PageMeta& m = table.Get(p);
    ASSERT_EQ(m.loc.segment, p % kThreads) << "page " << p;
    ASSERT_EQ(m.bytes, 512 + p % kThreads) << "page " << p;
    ASSERT_EQ(m.last_update, p + 1) << "page " << p;
  }
}

// Lock-free readers of already-published pages see stable values while
// writers publish new chunks beyond them.
TEST(PageTableConcurrencyTest, ReadersSeePublishedPagesDuringGrowth) {
  PageTable table;
  constexpr PageId kPublished = 3000;  // inside the first band
  constexpr uint32_t kWriters = 4;
  constexpr uint32_t kReaders = 4;
  constexpr PageId kGrowth = 40000;
  for (PageId p = 0; p < kPublished; p += 2) {
    table.Ensure(p).loc = PageLocation{7, static_cast<uint32_t>(p)};
  }
  std::atomic<uint32_t> writers_left{kWriters};
  std::atomic<bool> reads_ok{true};
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kWriters; ++t) {
    pool.emplace_back([&, t] {
      for (PageId i = 0; i < kGrowth; ++i) {
        table.Ensure(kPublished + i * kWriters + t).bytes = 1;
      }
      writers_left.fetch_sub(1);
    });
  }
  for (uint32_t r = 0; r < kReaders; ++r) {
    pool.emplace_back([&, r] {
      size_t last_size = 0;
      PageId p = r;
      while (writers_left.load() > 0) {
        p = (p + 7) % kPublished;
        const bool even = p % 2 == 0;
        const PageMeta& m = table.Get(p);
        if (table.Present(p) != even || m.loc.Present() != even ||
            (even && m.loc.index != p)) {
          reads_ok = false;
        }
        const size_t size = table.Size();
        if (size < last_size) reads_ok = false;
        last_size = size;
      }
    });
  }
  for (std::thread& th : pool) th.join();

  EXPECT_TRUE(reads_ok);
  EXPECT_EQ(table.Size(), kPublished + kGrowth * kWriters);
  for (PageId p = kPublished; p < kPublished + kGrowth * kWriters; ++p) {
    ASSERT_EQ(table.Get(p).bytes, 1u) << "page " << p;
  }
}

}  // namespace
}  // namespace lss
