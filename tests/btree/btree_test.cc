#include "btree/btree.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace lss {
namespace {

struct BTreeFixture : ::testing::Test {
  BTreeFixture() : pool(&pager, 64), tree(&pool) {}
  Pager pager;
  BufferPool pool;
  BTree tree;
};

std::string Key(int i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%08d", i);
  return buf;
}

TEST_F(BTreeFixture, EmptyTree) {
  EXPECT_EQ(tree.Size(), 0u);
  EXPECT_FALSE(tree.Get("anything", nullptr));
  EXPECT_FALSE(tree.Begin().Valid());
  EXPECT_TRUE(tree.CheckIntegrity().ok());
  EXPECT_EQ(tree.Height(), 1u);
}

TEST_F(BTreeFixture, InsertAndGet) {
  ASSERT_TRUE(tree.Insert("hello", "world").ok());
  std::string v;
  ASSERT_TRUE(tree.Get("hello", &v));
  EXPECT_EQ(v, "world");
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_FALSE(tree.Get("hellp", nullptr));
}

TEST_F(BTreeFixture, DuplicateInsertRejected) {
  ASSERT_TRUE(tree.Insert("k", "1").ok());
  EXPECT_FALSE(tree.Insert("k", "2").ok());
  std::string v;
  tree.Get("k", &v);
  EXPECT_EQ(v, "1");
}

TEST_F(BTreeFixture, PutOverwrites) {
  ASSERT_TRUE(tree.Put("k", "1").ok());
  ASSERT_TRUE(tree.Put("k", "22").ok());
  std::string v;
  ASSERT_TRUE(tree.Get("k", &v));
  EXPECT_EQ(v, "22");
  EXPECT_EQ(tree.Size(), 1u);
}

TEST_F(BTreeFixture, RejectsOversizedPayload) {
  const std::string huge(NodeView::kMaxPayload + 1, 'x');
  EXPECT_FALSE(tree.Insert("k", huge).ok());
  EXPECT_FALSE(tree.Insert("", "v").ok());
}

TEST_F(BTreeFixture, DeleteRemoves) {
  ASSERT_TRUE(tree.Insert("a", "1").ok());
  ASSERT_TRUE(tree.Insert("b", "2").ok());
  EXPECT_TRUE(tree.Delete("a"));
  EXPECT_FALSE(tree.Get("a", nullptr));
  EXPECT_FALSE(tree.Delete("a"));
  EXPECT_EQ(tree.Size(), 1u);
  EXPECT_TRUE(tree.CheckIntegrity().ok());
}

TEST_F(BTreeFixture, SplitsGrowTheTree) {
  // Enough records to force three levels: values ~100 bytes → ~36 per
  // leaf → ~250 leaves at 9000 records, exceeding one internal node's
  // ~240 children.
  for (int i = 0; i < 9000; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), std::string(100, 'v')).ok()) << i;
  }
  EXPECT_EQ(tree.Size(), 9000u);
  EXPECT_GE(tree.Height(), 3u);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  for (int i = 0; i < 9000; i += 97) {
    EXPECT_TRUE(tree.Get(Key(i), nullptr)) << i;
  }
}

TEST_F(BTreeFixture, ReverseInsertionOrder) {
  for (int i = 2000; i > 0; --i) {
    ASSERT_TRUE(tree.Insert(Key(i), "v").ok());
  }
  ASSERT_TRUE(tree.CheckIntegrity().ok());
  int count = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) ++count;
  EXPECT_EQ(count, 2000);
}

TEST_F(BTreeFixture, IteratorWalksInOrder) {
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i * 2), Key(i)).ok());
  }
  int expected = 0;
  for (auto it = tree.Begin(); it.Valid(); it.Next()) {
    EXPECT_EQ(it.key(), Key(expected));
    expected += 2;
  }
  EXPECT_EQ(expected, 1000);
}

TEST_F(BTreeFixture, SeekFindsLowerBound) {
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i * 10), "v").ok());
  }
  auto it = tree.Seek(Key(55));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(60));
  it = tree.Seek(Key(60));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(60));
  it = tree.Seek(Key(10000));
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeFixture, SeekSkipsEmptiedLeaves) {
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), std::string(200, 'v')).ok());
  }
  // Empty out a middle range spanning whole leaves.
  for (int i = 100; i < 200; ++i) EXPECT_TRUE(tree.Delete(Key(i)));
  auto it = tree.Seek(Key(100));
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(200));
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST_F(BTreeFixture, ValueGrowthForcesSplit) {
  // Fill a leaf with small values, then grow one beyond the free space.
  for (int i = 0; i < 36; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), std::string(90, 'a')).ok());
  }
  const std::string big(900, 'b');
  ASSERT_TRUE(tree.Put(Key(18), big).ok());
  std::string v;
  ASSERT_TRUE(tree.Get(Key(18), &v));
  EXPECT_EQ(v, big);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

TEST_F(BTreeFixture, TinyBufferPoolStillWorks) {
  // The tree must function with a pool barely larger than its pin depth,
  // exercising eviction and write-back of interior pages.
  Pager small_pager;
  BufferPool small_pool(&small_pager, 8);
  BTree t(&small_pool);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(t.Insert(Key(i), std::string(60, 'v')).ok()) << i;
  }
  for (int i = 0; i < 3000; i += 131) {
    EXPECT_TRUE(t.Get(Key(i), nullptr));
  }
  EXPECT_GT(small_pool.evictions(), 100u);
  ASSERT_TRUE(t.CheckIntegrity().ok());
}

// Property test: random interleaving of put/delete/get mirrors std::map.
TEST_F(BTreeFixture, MatchesReferenceModelUnderChurn) {
  std::map<std::string, std::string> model;
  Rng rng(2024);
  for (int step = 0; step < 20000; ++step) {
    const int key_id = static_cast<int>(rng.NextBounded(800));
    const std::string key = Key(key_id);
    const double dice = rng.NextDouble();
    if (dice < 0.55) {
      const std::string value(1 + rng.NextBounded(300), 'a' + key_id % 26);
      ASSERT_TRUE(tree.Put(key, value).ok());
      model[key] = value;
    } else if (dice < 0.75) {
      EXPECT_EQ(tree.Delete(key), model.erase(key) > 0) << step;
    } else {
      std::string got;
      const bool found = tree.Get(key, &got);
      auto it = model.find(key);
      ASSERT_EQ(found, it != model.end()) << step;
      if (found) {
        EXPECT_EQ(got, it->second);
      }
    }
    if (step % 4000 == 3999) {
      ASSERT_TRUE(tree.CheckIntegrity().ok()) << step;
      ASSERT_EQ(tree.Size(), model.size());
    }
  }
  // Final full-order comparison via iterator.
  auto it = tree.Begin();
  for (const auto& [k, v] : model) {
    ASSERT_TRUE(it.Valid());
    EXPECT_EQ(it.key(), k);
    EXPECT_EQ(it.value(), v);
    it.Next();
  }
  EXPECT_FALSE(it.Valid());
}

TEST_F(BTreeFixture, IteratorSurvivesWritesByReseeking) {
  // Regression: iterators used to cache a (leaf, slot) position with no
  // invalidation check, so a write that split or reorganised the leaf
  // made Next() read garbage. Now every Load compares the tree's
  // modification counter and re-seeks past the last returned key.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree.Insert(Key(i), "v").ok());
  }
  auto it = tree.Begin();
  for (int i = 0; i < 10; ++i) it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(10));

  // Mutate the tree under the live iterator: delete the keys it would
  // visit next and insert a new key between 10 and 11.
  for (int i = 11; i <= 15; ++i) EXPECT_TRUE(tree.Delete(Key(i)));
  ASSERT_TRUE(tree.Insert(Key(10) + "x", "mid").ok());

  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(10) + "x");
  it.Next();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(16));

  // The remainder of the scan stays strictly increasing to the end.
  std::string prev = it.key();
  for (it.Next(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    prev = it.key();
  }
  EXPECT_EQ(prev, Key(99));
}

TEST_F(BTreeFixture, IteratorSurvivesSplitsMidScan) {
  // Bulk inserts while an iterator is parked must not derail it even
  // when its leaf splits; it may see or skip keys inserted behind its
  // bound, but never breaks order or loses pre-existing keys.
  for (int i = 0; i < 200; i += 2) {
    ASSERT_TRUE(tree.Insert(Key(i), std::string(60, 'v')).ok());
  }
  auto it = tree.Begin();
  ASSERT_TRUE(it.Valid());
  EXPECT_EQ(it.key(), Key(0));
  // Fill in every odd key: forces splits across the whole leaf chain.
  for (int i = 1; i < 200; i += 2) {
    ASSERT_TRUE(tree.Insert(Key(i), std::string(60, 'o')).ok());
  }
  int seen_even = 1;  // Key(0) already returned
  std::string prev = it.key();
  for (it.Next(); it.Valid(); it.Next()) {
    EXPECT_LT(prev, it.key());
    prev = it.key();
    const int n = std::stoi(it.key().substr(1));
    if (n % 2 == 0) ++seen_even;
  }
  // Every pre-existing (even) key after the bound must be seen.
  EXPECT_EQ(seen_even, 100);
  ASSERT_TRUE(tree.CheckIntegrity().ok());
}

}  // namespace
}  // namespace lss
