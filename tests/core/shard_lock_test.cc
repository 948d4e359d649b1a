#include "core/shard_lock.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace lss {
namespace {

using QueuedWrite = ShardLock::QueuedWrite;

std::vector<PageId> Pages(const std::vector<QueuedWrite>& writes) {
  std::vector<PageId> pages;
  for (const QueuedWrite& w : writes) pages.push_back(w.page);
  return pages;
}

// A write queues only while the lock is held and the ring has room, and
// the release hands the queued writes to its caller in queue order.
TEST(ShardLockTest, QueuesWhileHeldAndDrainsInOrderOnRelease) {
  ShardLock lock(4);
  EXPECT_FALSE(lock.TryQueue({1, 10}));  // free: the caller takes it
  ASSERT_TRUE(lock.TryLock());
  EXPECT_FALSE(lock.TryLock());
  for (PageId p = 0; p < 4; ++p) {
    EXPECT_TRUE(lock.TryQueue({p, static_cast<uint32_t>(100 + p)}));
  }
  EXPECT_FALSE(lock.TryQueue({9, 0}));  // full

  std::vector<QueuedWrite> applied;
  lock.Unlock([&](const QueuedWrite& w) {
    // The slots are free again while the batch is applied: a write made
    // now still queues, and the same release applies it too.
    if (w.page == 0) {
      for (PageId p = 4; p < 8; ++p) EXPECT_TRUE(lock.TryQueue({p, 0}));
    }
    applied.push_back(w);
  });
  EXPECT_EQ(Pages(applied), (std::vector<PageId>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(applied[1].bytes, 101u);

  // Released with nothing left queued.
  EXPECT_FALSE(lock.TryQueue({9, 0}));
  ASSERT_TRUE(lock.TryLock());
  lock.Unlock([&](const QueuedWrite&) { ADD_FAILURE() << "stale write"; });
}

// The lock has no owner: one thread acquires, another releases (and
// drains what queued meanwhile), a third acquires after it. Under
// ThreadSanitizer this also checks that the hand-off orders the plain
// data the lock guards.
TEST(ShardLockTest, ReleaseOnAnotherThread) {
  ShardLock lock(8);
  int guarded = 0;
  std::vector<PageId> drained;
  for (int round = 1; round <= 100; ++round) {
    std::thread([&] {
      lock.Lock();
      guarded = round;
    }).join();
    std::thread([&] { EXPECT_TRUE(lock.TryQueue({PageId(round), 0})); })
        .join();
    std::thread([&] {
      lock.Unlock([&](const QueuedWrite& w) { drained.push_back(w.page); });
    }).join();
    lock.Lock();
    EXPECT_EQ(guarded, round);
    lock.Unlock([](const QueuedWrite&) {});
  }
  ASSERT_EQ(drained.size(), 100u);
  for (int round = 1; round <= 100; ++round) {
    EXPECT_EQ(drained[round - 1], PageId(round));
  }
}

// A waiter spins, then sleeps; the release wakes it. While it waits, the
// holder keeps the lock, so the waiter cannot have acquired it.
TEST(ShardLockTest, ParkedWaiterWakesOnRelease) {
  ShardLock lock(1);
  lock.Lock();
  std::atomic<int> acquired{0};
  std::vector<std::thread> waiters;
  for (int t = 0; t < 3; ++t) {
    waiters.emplace_back([&] {
      lock.Lock();
      acquired.fetch_add(1);
      lock.Unlock([](const QueuedWrite&) {});
    });
  }
  // Long past the spin: every waiter has parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(acquired.load(), 0);
  lock.Unlock([](const QueuedWrite&) {});
  for (std::thread& th : waiters) th.join();
  EXPECT_EQ(acquired.load(), 3);
}

// Many threads mixing Lock and TryQueue: every queued write is drained
// exactly once, and each thread's writes come out in its program order.
TEST(ShardLockTest, ConcurrentQueueAndLockDrainEveryWriteOnce) {
  ShardLock lock(16);
  constexpr uint32_t kThreads = 6;
  constexpr uint32_t kOps = 20000;
  std::vector<uint32_t> last(kThreads, 0);  // guarded by the lock
  std::atomic<uint64_t> out_of_order{0};
  uint64_t applied = 0;  // guarded by the lock
  auto apply = [&](const QueuedWrite& w) {
    if (w.bytes <= last[w.page]) out_of_order.fetch_add(1);
    last[w.page] = w.bytes;
    ++applied;
  };
  std::vector<std::thread> pool;
  for (uint32_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&, t] {
      for (uint32_t i = 1; i <= kOps; ++i) {
        const QueuedWrite w{t, i};
        if (lock.TryQueue(w)) continue;
        lock.Lock();
        apply(w);
        lock.Unlock(apply);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(out_of_order.load(), 0u);
  EXPECT_EQ(applied, uint64_t{kThreads} * kOps);
  for (uint32_t t = 0; t < kThreads; ++t) EXPECT_EQ(last[t], kOps);
}

}  // namespace
}  // namespace lss
