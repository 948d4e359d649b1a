#include "core/write_buffer.h"

#include <gtest/gtest.h>

#include <vector>

namespace lss {
namespace {

BufferedWrite MakeWrite(PageId p, uint32_t bytes, double up2,
                        bool first = false) {
  BufferedWrite w;
  w.page = p;
  w.bytes = bytes;
  w.up2 = up2;
  w.first_write = first;
  return w;
}

TEST(WriteBufferTest, StartsEmpty) {
  WriteBuffer b(1 << 20);
  EXPECT_TRUE(b.Empty());
  EXPECT_FALSE(b.Full());
  EXPECT_EQ(b.bytes(), 0u);
}

TEST(WriteBufferTest, AddAccumulatesBytes) {
  WriteBuffer b(1 << 20);
  EXPECT_EQ(b.Add(MakeWrite(1, 4096, 0)), 0u);
  EXPECT_EQ(b.Add(MakeWrite(2, 4096, 0)), 1u);
  EXPECT_EQ(b.bytes(), 8192u);
  EXPECT_EQ(b.Count(), 2u);
}

TEST(WriteBufferTest, FullAtCapacity) {
  WriteBuffer b(8192);
  b.Add(MakeWrite(1, 4096, 0));
  EXPECT_FALSE(b.Full());
  b.Add(MakeWrite(2, 4096, 0));
  EXPECT_TRUE(b.Full());
}

TEST(WriteBufferTest, DrainReturnsArrivalOrderAndEmpties) {
  WriteBuffer b(1 << 20);
  b.Add(MakeWrite(3, 4096, 1.0));
  b.Add(MakeWrite(1, 4096, 2.0));
  b.Add(MakeWrite(2, 4096, 3.0));
  std::vector<BufferedWrite> out = {MakeWrite(9, 512, 0)};  // stale
  b.DrainInto(&out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].page, 3u);
  EXPECT_EQ(out[1].page, 1u);
  EXPECT_EQ(out[2].page, 2u);
  EXPECT_TRUE(b.Empty());
  EXPECT_EQ(b.bytes(), 0u);
}

TEST(WriteBufferTest, ReusableAfterDrain) {
  WriteBuffer b(4096);
  b.Add(MakeWrite(1, 4096, 0));
  EXPECT_TRUE(b.Full());
  std::vector<BufferedWrite> out;
  b.DrainInto(&out);
  EXPECT_FALSE(b.Full());
  EXPECT_EQ(b.Add(MakeWrite(2, 4096, 0)), 0u);  // slots restart
  EXPECT_EQ(b.Count(), 1u);
}

// Draining into the same vector every time makes the buffer and the
// batch trade two storages: from the second drain on, neither regrows,
// so the buffer refills into the storage the previous batch handed back.
TEST(WriteBufferTest, StorageKeepsCapacityAcrossDrains) {
  constexpr int kWrites = 100;
  WriteBuffer b(1 << 20);
  std::vector<BufferedWrite> batch;
  std::vector<const BufferedWrite*> storage;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < kWrites; ++i) b.Add(MakeWrite(i, 512, i));
    b.DrainInto(&batch);
    ASSERT_EQ(batch.size(), static_cast<size_t>(kWrites));
    EXPECT_EQ(batch[kWrites - 1].page, static_cast<PageId>(kWrites - 1));
    EXPECT_TRUE(b.Empty());
    storage.push_back(batch.data());
  }
  EXPECT_NE(storage[1], storage[2]);
  EXPECT_EQ(storage[0], storage[2]);
  EXPECT_EQ(storage[1], storage[3]);
  EXPECT_GE(batch.capacity(), static_cast<size_t>(kWrites));
}

}  // namespace
}  // namespace lss
