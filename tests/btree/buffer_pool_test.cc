#include "btree/buffer_pool.h"

#include <cstring>
#include <deque>
#include <list>
#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

namespace lss {
namespace {

TEST(BufferPoolTest, AllocatePinnedReturnsZeroedPage) {
  Pager pager;
  BufferPool pool(&pager, 8);
  uint8_t* data = nullptr;
  const PageNo p = pool.AllocatePinned(&data);
  ASSERT_NE(data, nullptr);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(data[i], 0);
  pool.Unpin(p, true);
  pool.FlushAll();
}

TEST(BufferPoolTest, DirtyPageSurvivesEviction) {
  Pager pager;
  BufferPool pool(&pager, 8);
  uint8_t* data = nullptr;
  const PageNo p = pool.AllocatePinned(&data);
  data[0] = 0xAB;
  pool.Unpin(p, true);
  // Blow the cache with other pages.
  for (int i = 0; i < 32; ++i) {
    uint8_t* d = nullptr;
    const PageNo q = pool.AllocatePinned(&d);
    pool.Unpin(q, true);
  }
  uint8_t* back = pool.Pin(p);
  EXPECT_EQ(back[0], 0xAB);
  pool.Unpin(p, false);
  EXPECT_GT(pool.evictions(), 0u);
  pool.FlushAll();
}

TEST(BufferPoolTest, WriteObserverSeesWriteBacks) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  uint8_t* d = nullptr;
  const PageNo p = pool.AllocatePinned(&d);
  d[0] = 1;
  pool.Unpin(p, true);
  EXPECT_TRUE(written.empty());  // still cached
  pool.FlushAll();
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], p);
  // A clean page is not written again.
  pool.FlushAll();
  EXPECT_EQ(written.size(), 1u);
}

TEST(BufferPoolTest, EvictionWritesDirtyOnly) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  // One dirty page, then fill with clean re-reads of fresh pages.
  uint8_t* d = nullptr;
  const PageNo dirty = pool.AllocatePinned(&d);
  pool.Unpin(dirty, true);
  std::vector<PageNo> clean_pages;
  for (int i = 0; i < 20; ++i) clean_pages.push_back(pager.Allocate());
  for (PageNo p : clean_pages) {
    pool.Pin(p);
    pool.Unpin(p, false);
  }
  // The dirty page must have been written back exactly once on eviction.
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], dirty);
}

TEST(BufferPoolTest, HitsAndMisses) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  pool.Pin(p);
  pool.Unpin(p, false);
  pool.Pin(p);
  pool.Unpin(p, false);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(pool.hits(), 1u);
}

TEST(BufferPoolTest, LruEvictsColdestPage) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  std::vector<PageNo> pages;
  for (int i = 0; i < 8; ++i) {
    uint8_t* d = nullptr;
    pages.push_back(pool.AllocatePinned(&d));
    pool.Unpin(pages.back(), true);
  }
  // Touch all but pages[0]; the next allocation must evict pages[0].
  for (int i = 1; i < 8; ++i) {
    pool.Pin(pages[i]);
    pool.Unpin(pages[i], false);
  }
  uint8_t* d = nullptr;
  const PageNo q = pool.AllocatePinned(&d);
  pool.Unpin(q, true);
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], pages[0]);
}

TEST(BufferPoolTest, PageRefRaii) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  {
    PageRef ref(&pool, p);
    ASSERT_TRUE(ref.Valid());
    ref.data()[0] = 7;
    ref.MarkDirty();
  }
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  pool.FlushAll();
  EXPECT_EQ(pager.Raw(p)[0], 7);
}

TEST(BufferPoolTest, PartitionAutoScaling) {
  Pager pager;
  // Tiny pools get one stripe (exact global LRU, the pre-refactor
  // behaviour); big pools get up to 64 stripes of >= 64 frames each.
  EXPECT_EQ(BufferPool(&pager, 8).partitions(), 1u);
  EXPECT_EQ(BufferPool(&pager, 127).partitions(), 1u);
  EXPECT_EQ(BufferPool(&pager, 128).partitions(), 2u);
  EXPECT_EQ(BufferPool(&pager, 255).partitions(), 2u);
  EXPECT_EQ(BufferPool(&pager, 256).partitions(), 4u);
  // Fig. 6's default cache: 16 stripes over 1,654 frames.
  EXPECT_EQ(BufferPool(&pager, 1654).partitions(), 16u);
  EXPECT_EQ(BufferPool(&pager, 8192).partitions(), 64u);
}

TEST(BufferPoolTest, RepeatedPinsCountOneFrame) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  pool.Pin(p);
  pool.Pin(p);
  EXPECT_EQ(pool.PinnedFrames(), 1u);
  pool.Unpin(p, false);
  EXPECT_EQ(pool.PinnedFrames(), 1u);  // one pin still outstanding
  pool.Unpin(p, false);
  EXPECT_EQ(pool.PinnedFrames(), 0u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
}

TEST(BufferPoolTest, FlushAllSkipsPinnedFrames) {
  Pager pager;
  std::vector<PageNo> written;
  BufferPool pool(&pager, 8, [&](PageNo p) { written.push_back(p); });
  uint8_t* d = nullptr;
  const PageNo p = pool.AllocatePinned(&d);
  // Pinned + dirty: a flush must leave the frame alone (its bytes are in
  // active use), and write it once it is unpinned.
  pool.FlushAll();
  EXPECT_TRUE(written.empty());
  pool.Unpin(p, true);
  pool.FlushAll();
  ASSERT_EQ(written.size(), 1u);
  EXPECT_EQ(written[0], p);
}

TEST(BufferPoolTest, MultiPartitionEvictionAccounting) {
  Pager pager;
  uint64_t observed = 0;
  BufferPool pool(&pager, 256, [&](PageNo) { ++observed; });
  ASSERT_EQ(pool.partitions(), 4u);
  // Write 4x the capacity in distinct pages, each stamped with its page
  // number; every page must survive (via write-back) despite evictions
  // landing across all four stripes.
  constexpr int kPages = 1024;
  std::vector<PageNo> pages;
  for (int i = 0; i < kPages; ++i) {
    uint8_t* d = nullptr;
    const PageNo p = pool.AllocatePinned(&d);
    std::memcpy(d, &p, sizeof(p));
    pool.Unpin(p, true);
    pages.push_back(p);
  }
  pool.FlushAll();
  EXPECT_GT(pool.evictions(), 0u);
  EXPECT_EQ(pool.write_backs(), observed);
  EXPECT_EQ(pool.write_backs(), static_cast<uint64_t>(kPages));
  for (PageNo p : pages) {
    PageRef ref(&pool, p);
    PageNo stamp = 0;
    std::memcpy(&stamp, ref.data(), sizeof(stamp));
    EXPECT_EQ(stamp, p);
  }
  // Every allocation missed; the verification pass re-misses evicted
  // pages and hits cached ones — totals must reconcile exactly.
  EXPECT_EQ(pool.hits() + pool.misses(),
            static_cast<uint64_t>(2 * kPages));
}

TEST(BufferPoolTest, PageRefMoveTransfersOwnership) {
  Pager pager;
  BufferPool pool(&pager, 8);
  const PageNo p = pager.Allocate();
  PageRef a(&pool, p);
  PageRef b = std::move(a);
  EXPECT_FALSE(a.Valid());
  EXPECT_TRUE(b.Valid());
  b.Release();
  EXPECT_EQ(pool.PinnedFrames(), 0u);
}

TEST(BufferPoolTest, AutoPartitionFloor) {
  Pager pager;
  // Auto-partitioning never creates a stripe of fewer than 64 frames, so
  // every capacity below 128 — including the asserted minimum of 8 —
  // runs as exactly one partition (a single exact cache).
  for (size_t capacity = 8; capacity < 128; ++capacity) {
    EXPECT_EQ(BufferPool(&pager, capacity).partitions(), 1u)
        << "capacity " << capacity;
  }
  EXPECT_EQ(BufferPool(&pager, 128).partitions(), 2u);
}

// Reference model of an exact LRU cache at one partition: the pool must
// reproduce its observable behaviour — write-back order and all
// counters — bit for bit.
class LruReferenceModel {
 public:
  explicit LruReferenceModel(size_t capacity) : capacity_(capacity) {
    // Free frames are handed out lowest-index first.
    for (size_t i = 0; i < capacity; ++i) free_.push_back(capacity - 1 - i);
  }

  void Pin(PageNo page) {
    auto it = resident_.find(page);
    if (it != resident_.end()) {
      ++hits;
      lru_.remove(page);
      ++it->second.pins;
      return;
    }
    ++misses;
    size_t idx;
    if (!free_.empty()) {
      idx = free_.back();
      free_.pop_back();
    } else {
      const PageNo victim = lru_.back();
      lru_.pop_back();
      Entry& v = resident_[victim];
      if (v.dirty) writes.push_back(victim);
      idx = v.frame;
      resident_.erase(victim);
      ++evictions;
    }
    resident_[page] = Entry{idx, 1, false};
  }

  void Unpin(PageNo page, bool dirty) {
    Entry& e = resident_[page];
    e.dirty |= dirty;
    if (--e.pins == 0) lru_.push_front(page);
  }

  void FlushAll() {
    // Frame-index order, dirty unpinned frames only.
    std::map<size_t, PageNo> by_frame;
    for (const auto& [page, e] : resident_) by_frame[e.frame] = page;
    for (const auto& [idx, page] : by_frame) {
      (void)idx;
      Entry& e = resident_[page];
      if (e.dirty && e.pins == 0) {
        writes.push_back(page);
        e.dirty = false;
      }
    }
  }

  std::vector<PageNo> writes;
  uint64_t hits = 0, misses = 0, evictions = 0;

 private:
  struct Entry {
    size_t frame = 0;
    uint32_t pins = 0;
    bool dirty = false;
  };
  size_t capacity_;
  std::unordered_map<PageNo, Entry> resident_;
  std::list<PageNo> lru_;      // front = MRU; unpinned pages only
  std::vector<size_t> free_;   // pop_back yields lowest index first
};

TEST(BufferPoolTest, ExactLruMatchesReferenceModel) {
  constexpr size_t kCapacity = 16;
  constexpr PageNo kPages = 40;
  constexpr int kOps = 20000;

  Pager pager;
  std::vector<PageNo> pool_writes;
  BufferPool pool(&pager, kCapacity,
                  [&](PageNo p) { pool_writes.push_back(p); });
  ASSERT_EQ(pool.partitions(), 1u);
  LruReferenceModel model(kCapacity);
  for (PageNo p = 0; p < kPages; ++p) pager.Allocate();

  // A deterministic stream of overlapping pins, dirtying half of them,
  // with periodic checkpoints.
  std::deque<PageNo> held;
  uint64_t x = 12345;
  for (int i = 0; i < kOps; ++i) {
    x = SplitMix64(x);
    const PageNo p = static_cast<PageNo>(x % kPages);
    pool.Pin(p);
    model.Pin(p);
    held.push_back(p);
    if (held.size() > 3) {
      x = SplitMix64(x);
      const bool dirty = (x & 1) != 0;
      pool.Unpin(held.front(), dirty);
      model.Unpin(held.front(), dirty);
      held.pop_front();
    }
    if ((i % 1024) == 1023) {
      pool.FlushAll();
      model.FlushAll();
    }
  }
  while (!held.empty()) {
    pool.Unpin(held.front(), false);
    model.Unpin(held.front(), false);
    held.pop_front();
  }
  pool.FlushAll();
  model.FlushAll();

  EXPECT_EQ(pool_writes, model.writes);
  EXPECT_EQ(pool.hits(), model.hits);
  EXPECT_EQ(pool.misses(), model.misses);
  EXPECT_EQ(pool.evictions(), model.evictions);
  EXPECT_EQ(pool.write_backs(), model.writes.size());
}

}  // namespace
}  // namespace lss
